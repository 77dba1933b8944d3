"""Command-line front end.

Exit codes: 0 success (or suite passed), 1 suite failure, 2 usage or
domain error, 3 computational error (budget, overflow, non-convergence).
Machine output goes to stdout, diagnostics to stderr.  Identical argv,
config and seed produce byte-identical stdout; results are cached under a
content hash of (subcommand, normalized flags, package version and a digest
of the package's sources) unless --no-cache is given, so a code change
never serves an older result.

Config file: plain ``key = value`` lines for cache_dir and
default_tolerance_scale.  CLI flags override file values, and the
DELTASUM_CACHE environment variable overrides the cache_dir from either.
The default tolerance scale reaches only the suites that take one.

`verify` passes --seed, --trials and --tolerance-scale to its suite, and a
suite that does not take one of them rejects it with exit 2.  Likewise
`sum --budget` is a usage error for the kinds that have no summation
budget (gauss, ramanujan, dsum, c3).

The argparse tree is built once per process, on the first `main()` call,
and reused by later calls: `parse_args` makes a fresh namespace each time
and help text reads the terminal width when it is printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import inspect
import json
import os
import sys
import tempfile

from . import __version__
from .characters import DirichletCharacter, gauss_sum
from .errors import ComputationError, DomainError, InvalidValue
from .exponent import minimize_max, paper_bound_problem, parse_problem_file, staged_elimination
from .expsums import (
    DEFAULT_BUDGET,
    c3_closed,
    c4_correlation,
    d_sum,
    kloosterman,
    ramanujan_sum,
    twisted_kloosterman,
)
from .oscillatory import TOY_PARAMS, TOY_THETA, WindowFunction, bessel_j, integral_value_and_error
from .scan import append_ledger
from .suites import SUITES, run_suite

DEFAULT_CACHE_DIR = os.path.join(os.path.expanduser("~"), ".cache", "deltasum")
SUM_KINDS = ("kloosterman", "twisted", "gauss", "ramanujan", "dsum", "c3", "c4")
BUDGET_KINDS = ("kloosterman", "twisted", "c4")  # the sums that --budget bounds


@dataclasses.dataclass
class CliConfig:
    cache_dir: str = DEFAULT_CACHE_DIR
    default_tolerance_scale: float = 1.0


def load_config(path):
    config = CliConfig()
    if path is None:
        return config
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{line_no}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "cache_dir":
                config.cache_dir = value
            elif key == "default_tolerance_scale":
                try:
                    config.default_tolerance_scale = float(value)
                except ValueError:
                    raise DomainError(f"{path}:{line_no}: default_tolerance_scale "
                                      f"must be a number, got {value!r}") from None
            else:
                raise DomainError(f"{path}:{line_no}: unknown config key {key!r}")
    return config


def resolve_config(args):
    config = load_config(getattr(args, "config", None))
    env_cache = os.environ.get("DELTASUM_CACHE")
    if env_cache:
        config.cache_dir = env_cache
    if getattr(args, "cache_dir", None):
        config.cache_dir = args.cache_dir
    return config


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="deltasum",
        description="Exponential-sum identities, oscillatory Bessel integrals, "
                    "and exact exponent optimization, with verification suites.")
    parser.add_argument("--version", action="version", version=f"deltasum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, csv=False):
        p.add_argument("--json", action="store_true", help="emit a single JSON document")
        if csv:  # only sum and verify have a CSV rendering; elsewhere --csv is a usage error
            p.add_argument("--csv", action="store_true", help="emit one CSV row per case")
        p.add_argument("--no-cache", action="store_true", help="bypass the result cache")
        p.add_argument("--cache-dir", help="cache directory (env DELTASUM_CACHE overrides config)")
        p.add_argument("--config", help="config file with 'key = value' lines")

    p_sum = sub.add_parser("sum", help="compute one exponential/character sum")
    p_sum.add_argument("kind", choices=SUM_KINDS)
    for flag in ("--m", "--n", "--c", "--q", "--u", "--v", "--p", "--h",
                 "--modulus", "--chi-index", "--psi-index", "--c2", "--q2-tilde",
                 "--p-prime", "--q1", "--m-dprime", "--M", "--r-prime",
                 "--ell", "--ell-prime"):
        p_sum.add_argument(flag, type=int)
    p_sum.add_argument("--budget", type=int, default=None,
                       help="summation budget of kloosterman, twisted and c4")
    add_common(p_sum, csv=True)

    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--grid-preset", default="default", choices=("default", "smoke"))
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None,
                          help="trial count of the reciprocity suite")
    p_verify.add_argument("--tolerance-scale", type=float, default=None)
    add_common(p_verify, csv=True)

    p_opt = sub.add_parser("optimize", help="minimize the max bound exponent")
    group = p_opt.add_mutually_exclusive_group(required=True)
    group.add_argument("--paper", action="store_true",
                       help="use the built-in six-term bound problem")
    group.add_argument("--problem", help="problem description file")
    p_opt.add_argument("--exact", action="store_true", help="print exact rationals")
    p_opt.add_argument("--staged", action="store_true",
                       help="use the pairwise elimination route")
    add_common(p_opt)

    p_bessel = sub.add_parser("bessel", help="evaluate J_nu(x)")
    p_bessel.add_argument("--nu", type=int, required=True)
    p_bessel.add_argument("--x", type=float, required=True)
    add_common(p_bessel)

    p_int = sub.add_parser("integral", help="evaluate the oscillatory window integral")
    p_int.add_argument("--preset", choices=("toy",), default="toy")
    p_int.add_argument("--N", type=float)
    p_int.add_argument("--n", type=int)
    p_int.add_argument("--p", type=int)
    p_int.add_argument("--ell", type=int)
    p_int.add_argument("--c", type=float)
    p_int.add_argument("--M", type=int)
    p_int.add_argument("--m", type=int)
    p_int.add_argument("--k", type=int)
    p_int.add_argument("--theta", type=float)
    p_int.add_argument("--window", choices=("plateau", "bump"), default="plateau")
    p_int.add_argument("--tol", type=float, default=1e-12)
    add_common(p_int)
    return parser


def _sum_payload(value):
    return {"re": value.value.real, "im": value.value.imag,
            "terms": value.terms, "est_error": value.est_error}


def _render_sum(payload, args):
    if args.json:
        return json.dumps(payload)
    if args.csv:
        return ",".join(repr(payload[k]) for k in ("re", "im", "terms", "est_error"))
    return (f"value = {payload['re']!r} + {payload['im']!r}i  "
            f"(terms={payload['terms']}, est_error={payload['est_error']!r})")


def _require(args, names):
    missing = [name for name in names if getattr(args, name.replace("-", "_")) is None]
    if missing:
        raise DomainError(f"missing required flags: {', '.join('--' + m for m in missing)}")


def run_sum(args, config):
    kind = args.kind
    if args.budget is not None and kind not in BUDGET_KINDS:
        raise InvalidValue(f"sum {kind} does not take --budget")
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    if kind == "kloosterman":
        _require(args, ["m", "n", "c"])
        out = _sum_payload(kloosterman(args.m, args.n, args.c, budget))
    elif kind == "twisted":
        _require(args, ["m", "n", "c", "p", "psi-index"])
        psi = DirichletCharacter.from_index(args.p, args.psi_index)
        out = _sum_payload(twisted_kloosterman(psi, args.m, args.n, args.c, budget))
    elif kind == "gauss":
        _require(args, ["modulus", "chi-index"])
        chi = DirichletCharacter.from_index(args.modulus, args.chi_index)
        g = gauss_sum(chi)
        out = {"re": g.real, "im": g.imag, "terms": args.modulus - 1,
               "est_error": 4e-15 * args.modulus}
    elif kind == "ramanujan":
        _require(args, ["q", "n"])
        out = {"value": ramanujan_sum(args.q, args.n)}
    elif kind == "dsum":
        _require(args, ["u", "modulus", "chi-index"])
        chi = DirichletCharacter.from_index(args.modulus, args.chi_index)
        out = _sum_payload(d_sum(args.u, args.modulus, chi))
    elif kind == "c3":
        _require(args, ["v", "modulus", "chi-index"])
        chi = DirichletCharacter.from_index(args.modulus, args.chi_index)
        out = _sum_payload(c3_closed(args.v, args.modulus, chi))
    else:  # c4
        _require(args, ["c2", "q2-tilde", "p", "p-prime", "q1", "m-dprime",
                        "M", "h", "n", "r-prime", "ell", "ell-prime"])
        out = _sum_payload(c4_correlation(
            args.c2, args.q2_tilde, args.p, args.p_prime, args.q1, args.m_dprime,
            args.M, args.h, args.n, args.r_prime, args.ell, args.ell_prime, budget))
    if "value" in out and args.json:
        return json.dumps(out), 0
    if "value" in out:
        return (",".join([str(out["value"])]) if args.csv else str(out["value"])), 0
    return _render_sum(out, args), 0


def run_verify(args, config):
    tolerance_scale = args.tolerance_scale
    if (tolerance_scale is None
            and "tolerance_scale" in inspect.signature(SUITES[args.suite]).parameters):
        tolerance_scale = config.default_tolerance_scale
    report = run_suite(args.suite, preset=args.grid_preset, seed=args.seed,
                       trials=args.trials, tolerance_scale=tolerance_scale)
    try:
        append_ledger(report, config.cache_dir)
    except OSError as exc:
        print(f"warning: could not append to ledger: {exc}", file=sys.stderr)
    print(f"runtime_ms={report.runtime_ms}", file=sys.stderr)
    if args.json:
        text = report.to_json()
    elif args.csv:
        text = ",".join('"%s"' % cell.replace('"', '""')
                        for cell in report.csv_row()[:5])
    else:
        text = (f"suite={report.suite} cases={report.cases} "
                f"max_deviation={report.max_deviation!r} passed={str(report.passed).lower()}")
    return text, 0 if report.passed else 1


def run_optimize(args, config):
    if args.paper:
        problem = paper_bound_problem()
    else:
        with open(args.problem, encoding="utf-8") as fh:
            problem = parse_problem_file(fh.read())
    result = staged_elimination(problem) if args.staged else minimize_max(problem)
    xP, xL, theta = result.point
    if args.json:
        payload = {"theta": str(theta), "exponent": str(result.value),
                   "xP": str(xP), "xL": str(xL),
                   "active_terms": list(result.active_terms)}
        if not args.exact:
            payload.update({"theta_float": float(theta), "exponent_float": float(result.value)})
        return json.dumps(payload), 0
    if args.exact:
        lines = [f"theta = {theta}", f"exponent = {result.value}",
                 f"xP = {xP}", f"xL = {xL}"]
    else:
        lines = [f"theta = {float(theta)!r}", f"exponent = {float(result.value)!r}",
                 f"xP = {float(xP)!r}", f"xL = {float(xL)!r}"]
    return "\n".join(lines), 0


def run_bessel(args, config):
    value = bessel_j(args.nu, args.x)
    if args.json:
        return json.dumps({"nu": args.nu, "x": args.x, "value": value}), 0
    return repr(value), 0


def run_integral(args, config):
    params = dataclasses.replace(TOY_PARAMS, **{
        field.name: getattr(args, field.name) for field in dataclasses.fields(TOY_PARAMS)
        if getattr(args, field.name) is not None})
    theta = TOY_THETA if args.theta is None else args.theta
    window = WindowFunction(args.window, theta if args.window == "plateau" else 0.0)
    value, err = integral_value_and_error(params, window, args.tol)
    value, err = complex(value), float(err)
    payload = {"re": value.real, "im": value.imag, "abs": abs(value), "err_estimate": err}
    if args.json:
        return json.dumps(payload), 0
    return (f"integral = {payload['re']!r} + {payload['im']!r}i  "
            f"(abs={payload['abs']!r}, err={payload['err_estimate']!r})"), 0


RUNNERS = {"sum": run_sum, "verify": run_verify, "optimize": run_optimize,
           "bessel": run_bessel, "integral": run_integral}

_CACHE_SKIP_KEYS = {"no_cache", "cache_dir", "config", "command"}


@functools.cache
def _source_digest():
    """sha256 of the package's *.py files (each name, then its bytes), in name order."""
    digest = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode("utf-8") + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def _cache_key(args):
    material = {k: v for k, v in sorted(vars(args).items()) if k not in _CACHE_SKIP_KEYS}
    material["_version"] = __version__
    material["_source"] = _source_digest()
    blob = json.dumps(material, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cache_read(key, config):
    path = os.path.join(config.cache_dir, key + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _cache_write(key, payload, config):
    try:
        os.makedirs(config.cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=config.cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, os.path.join(config.cache_dir, key + ".json"))
    except OSError as exc:
        print(f"warning: cache write failed: {exc}", file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        config = resolve_config(args)
        use_cache = not args.no_cache
        key = _cache_key(args) if use_cache else None
        if use_cache and args.command != "verify":
            hit = _cache_read(key, config)
            if hit is not None:
                sys.stdout.write(hit["stdout"])
                return int(hit["exit_code"])
        text, code = RUNNERS[args.command](args, config)
        out = text + "\n"
        if use_cache and args.command != "verify":
            _cache_write(key, {"stdout": out, "exit_code": code}, config)
        sys.stdout.write(out)
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
