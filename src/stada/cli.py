"""Command-line harness: verification suites, expression evaluation,
residual computation, and report summaries.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage or
input errors.  Reports are JSON with sorted keys, so a fixed seed gives
byte-identical output apart from the environment stamp.

A command imports the modules it runs when it runs: `verify` loads
`suites` and `residual` loads `equations`, so `eval` and `report` load
neither numpy nor `fields`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import scalars
from .errors import DomainError, ParseError, StadaError
from .expr import eval_expr, parse_field
from .multivector import format_multivector, multivector_from_json
from .names import REDUCTION_KINDS, SUITE_NAMES, EquationForm
from .scalars import EXACT, FLOAT

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

REPORT_DIR_ENV = "STADA_REPORT_DIR"

# the mass of `residual` without --mass, unless a plane wave names its own
_DEFAULT_MASS = 1.0


def _report_path(arg_path: str | None, default_name: str) -> str | None:
    if arg_path:
        return arg_path
    env_dir = os.environ.get(REPORT_DIR_ENV)
    if env_dir:
        os.makedirs(env_dir, exist_ok=True)
        return os.path.join(env_dir, default_name)
    return None


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_verify(args) -> int:
    from . import suites

    report = suites.run_suite(args.suite, seed=args.seed, backend=args.backend,
                              iterations=args.iterations, tolerance=args.tolerance)
    for check in report.checks:
        print(f"[{check.status:>4}] {check.id}: {check.law}"
              + (f" ({check.detail})" if check.detail else ""))
    summary = report.summary()
    print(f"suite {report.suite}: {summary['passed']}/{summary['total']} checks passed")
    path = _report_path(args.report, f"verify_{args.suite}_seed{args.seed}.json")
    if path:
        _write_json(path, report.to_json_dict())
        print(f"report written to {path}")
    return EXIT_PASS if report.passed() else EXIT_FAIL


def _cmd_eval(args) -> int:
    backend = EXACT if args.backend == "exact" else FLOAT
    value = eval_expr(args.expression, backend)
    try:
        print(format_multivector(value, basis=args.basis))
    except ValueError as exc:  # an exact coefficient beyond the int-to-str digit limit
        raise DomainError(f"the value is too large to print: {exc}") from None
    return EXIT_PASS


def _residual_basis(choice: str):
    from . import ideal

    if choice == "canonical":
        return ideal.canonical_basis()
    if choice.startswith("random:"):
        import random as _random

        from .generators import random_generators

        try:
            seed = int(choice.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"generator seed must be an integer, got {choice!r}") from None
        return ideal.idempotent_of(random_generators(_random.Random(seed)))
    raise DomainError(f"unknown generator choice {choice!r}")


def _cmd_residual(args) -> int:
    from . import equations as eq
    from .fields import AnalyticField

    form = EquationForm.from_name(args.form)
    fbasis = _residual_basis(args.generators).to_float()
    pot = None
    if args.potential:
        if os.path.exists(args.potential):
            with open(args.potential, encoding="utf-8") as fh:
                try:
                    data = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise DomainError(f"{args.potential}: not JSON ({exc})") from None
            pot_mv = multivector_from_json(data).to_float()
            if not math.isfinite(pot_mv.max_abs()):
                raise DomainError(f"{args.potential}: coefficients must be finite")
            pot = AnalyticField.constant(pot_mv)
        else:
            pot = parse_field(args.potential, FLOAT)

    if args.reduce:
        report = _reduction_report(args, form, fbasis, pot)
    else:
        state, mass = _load_state(args, form, fbasis)
        report = eq.FieldConfig(form, state, pot, mass, fbasis).residual(
            tolerance=args.tolerance, seed=args.seed)
    payload = report.to_json_dict()
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise DomainError(f"the residual norm is {report.max_norm}, not a finite number") from None
    path = _report_path(args.report, f"residual_{args.form}_seed{args.seed}.json")
    if path:
        _write_json(path, payload)
        print(f"report written to {path}")
    else:
        print(text)
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


def _load_state(args, form: EquationForm, fbasis):
    """The state of `residual` and the mass its residual takes: `--mass`
    when given, else the plane wave's own m, else 1."""
    from . import equations as eq
    from .fields import AnalyticField
    from .grid import GridField

    mass = _DEFAULT_MASS if args.mass is None else args.mass
    if args.plane_wave:
        params = {}
        for part in args.plane_wave.split(";"):
            key, _, value = part.partition("=")
            if key not in ("m", "p", "sign", "which") or not value:
                raise DomainError(f"plane-wave parts are m=, p=, sign= or which=; got {part!r}")
            params[key] = value
        if "p" not in params:
            raise DomainError("the plane wave needs a momentum p=p0,p1,p2,p3")
        try:
            m = float(params["m"]) if "m" in params else mass
            p = tuple(float(v) for v in params["p"].split(","))
            sign = int(params.get("sign", 1))
            which = int(params.get("which", 0))
        except ValueError as exc:
            raise DomainError(f"bad plane-wave value: {exc}") from None
        if len(p) != 4 or not all(map(math.isfinite, p + (m,))) or which < 0:
            raise DomainError("the plane wave needs four finite momenta, a finite mass "
                              "and which >= 0")
        state = eq.plane_wave(form, p, m, sign, basis=fbasis, which=which).state
        return state, m if args.mass is None else mass
    if args.state == "zero":
        if form == EquationForm.DIRAC_MATRIX:
            return eq.BispinorField.zero(FLOAT), mass
        return AnalyticField.zero(FLOAT), mass
    if os.path.exists(args.state):
        return GridField.load(args.state), mass
    return parse_field(args.state, FLOAT), mass


def _reduction_report(args, form: EquationForm, fbasis, pot):
    """Check the idempotent reduction identity on a seeded random state."""
    import random as _random

    from . import equations as eq
    from .fields import AnalyticField, Poly

    if form != EquationForm.ILK:
        raise DomainError("--reduce applies to the general form only")
    rng = _random.Random(args.seed)
    entries = []
    for _ in range(3):
        phase = Poly({tuple(rng.randint(0, 1) for _ in range(4)):
                      float(rng.randint(-2, 2))})
        coeffs = [Poly() for _ in range(16)]
        for _ in range(4):
            mask = rng.randrange(16)
            coeffs[mask] = coeffs[mask] + Poly.constant(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        entries.append((phase, coeffs))
    rho = AnalyticField(FLOAT, entries)
    mass = _DEFAULT_MASS if args.mass is None else args.mass
    lhs, rhs = eq.reduction_sides(args.reduce, rho, pot, mass, fbasis.gens)
    return eq.ResidualReport(
        form=form.value, backend="float", max_norm=eq.field_gap(lhs, rhs, args.seed),
        tolerance=args.tolerance, seed=args.seed,
        notes=[f"reduction identity for idempotent {args.reduce}"])


def _cmd_report(args) -> int:
    paths = list(args.paths)
    if not paths:
        env_dir = os.environ.get(REPORT_DIR_ENV)
        if env_dir and os.path.isdir(env_dir):
            paths = [os.path.join(env_dir, name) for name in sorted(os.listdir(env_dir))
                     if name.endswith(".json")]
    if not paths:
        print("no report files given and none found", file=sys.stderr)
        return EXIT_USAGE
    all_pass = True
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(data, dict):
            data = {}
        if isinstance(data.get("summary"), dict):
            s = data["summary"]
            status = s.get("status", "?")
            print(f"{path}: suite {data.get('suite', '?')} {status} "
                  f"({s.get('passed', '?')}/{s.get('total', '?')})")
            all_pass &= status == "pass"
        elif "verdict" in data:
            print(f"{path}: form {data.get('form', '?')} {data['verdict']} "
                  f"(max_norm {data.get('max_norm')}, tolerance {data.get('tolerance')})")
            all_pass &= data["verdict"] == "pass"
        else:
            print(f"{path}: unknown report layout", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_PASS if all_pass else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """Usage errors end in exit code 2 with a one-line `error:` message."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a finite number above zero, got {text!r}")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stada",
        description="verification harness for the spacetime algebra and the "
                    "equivalent forms of the Dirac equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", default="all", choices=SUITE_NAMES)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--backend", default="exact", choices=("exact", "float"),
                          help="scalar backend of the equations suite; the other "
                               "suites ignore it")
    p_verify.add_argument("--iterations", type=_count, default=None)
    p_verify.add_argument("--tolerance", type=_tolerance, default=scalars.DEFAULT_TOLERANCE,
                          help="tolerance of the equations suite; the other suites "
                               "ignore it")
    p_verify.add_argument("--report", default=None, metavar="PATH")
    p_verify.set_defaults(func=_cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate a multivector expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--basis", default="e", choices=("l", "e"))
    p_eval.add_argument("--backend", default="exact", choices=("exact", "float"))
    p_eval.set_defaults(func=_cmd_eval)

    p_res = sub.add_parser("residual", help="evaluate an equation-form residual")
    p_res.add_argument("--form", required=True,
                       choices=[f.value for f in EquationForm])
    p_res.add_argument("--state", default=None,
                       help="'zero', a field expression, or a grid dump path")
    p_res.add_argument("--plane-wave", default=None, metavar="SPEC",
                       help="generate a free solution, e.g. 'm=1;p=1,0,0,0;sign=1'")
    p_res.add_argument("--potential", "-A", default=None, metavar="EXPR_OR_PATH")
    p_res.add_argument("--mass", "-m", type=_finite, default=None,
                       help="mass of the residual; default: the m of --plane-wave, "
                            "else 1")
    p_res.add_argument("--generators", default="canonical",
                       help="'canonical' or 'random:<seed>'")
    p_res.add_argument("--reduce", default=None, choices=REDUCTION_KINDS,
                       help="check the idempotent reduction identity instead")
    p_res.add_argument("--seed", type=int, default=0)
    p_res.add_argument("--tolerance", type=_tolerance, default=scalars.DEFAULT_TOLERANCE)
    p_res.add_argument("--report", default=None, metavar="PATH")
    p_res.set_defaults(func=_cmd_residual)

    p_rep = sub.add_parser("report", help="summarize stored JSON reports")
    p_rep.add_argument("paths", nargs="*")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "residual":
        if not args.reduce and not args.plane_wave and args.state is None:
            parser.error("residual needs --state, --plane-wave, or --reduce")
    try:
        return args.func(args)
    except (ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StadaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
