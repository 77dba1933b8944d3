"""Command-line front end.

Exit codes: 0 success (or suite passed), 1 suite failure, 2 usage or
domain error, 3 computational error (budget, overflow, non-convergence).
Machine output goes to stdout, diagnostics to stderr.  Identical argv,
config and seed produce byte-identical stdout.  The results of sum,
optimize, bessel and integral are cached under a content hash of
(subcommand, normalized flags, package version, a digest of the package's
sources, and the numpy and Python versions) unless --no-cache is given, so
a code change or an upgrade never serves an older result; verify is never
cached and has no --no-cache.

Config file: plain ``key = value`` lines for cache_dir and
default_tolerance_scale.  CLI flags override file values, and the
DELTASUM_CACHE environment variable overrides the cache_dir from either.
The default tolerance scale reaches only the suites that take one.

`verify` passes --seed, --trials and --tolerance-scale to its suite, and a
suite that does not take one of them rejects it with exit 2.  Likewise
each `sum` kind is one function in SUMS whose parameters are exactly the
flags it reads, under their argparse dest names: the `sum` flags are the
union of those signatures, any flag the kind does not take exits 2, and
so does a missing flag whose parameter has no default.

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

import numpy as np

from . import __version__
from .characters import DirichletCharacter
from .errors import ComputationError, DomainError, InvalidValue
from .exponent import minimize_max, paper_bound_problem, parse_problem_file, staged_elimination
from .expsums import (
    DEFAULT_BUDGET,
    c3_closed,
    c4_correlation,
    d_sum,
    gauss_sum,
    kloosterman,
    ramanujan_sum,
    twisted_kloosterman,
)
from .oscillatory import TOY_PARAMS, TOY_THETA, WindowFunction, bessel_j, integral_value_and_error
from .scan import append_ledger, csv_line
from .suites import SUITES, run_suite

DEFAULT_CACHE_DIR = os.path.join(os.path.expanduser("~"), ".cache", "deltasum")


def _twisted(m, n, c, p, psi_index, budget=DEFAULT_BUDGET):
    return twisted_kloosterman(DirichletCharacter.from_index(p, psi_index), m, n, c, budget)


def _gauss(modulus, chi_index):
    return gauss_sum(DirichletCharacter.from_index(modulus, chi_index))


def _dsum(u, modulus, chi_index):
    return d_sum(u, modulus, DirichletCharacter.from_index(modulus, chi_index))


def _c3(v, modulus, chi_index):
    return c3_closed(v, modulus, DirichletCharacter.from_index(modulus, chi_index))


# The kinds of `sum`.  A parameter is the flag --name (underscores as dashes),
# required unless it has a default.
SUMS = {"kloosterman": kloosterman, "twisted": _twisted, "gauss": _gauss,
        "ramanujan": ramanujan_sum, "dsum": _dsum, "c3": _c3, "c4": c4_correlation}
_SUM_PARAMS = {kind: inspect.signature(fn).parameters for kind, fn in SUMS.items()}
_SUM_READERS = {name: [kind for kind, params in _SUM_PARAMS.items() if name in params]
                for params in _SUM_PARAMS.values() for name in params}


def _flag(name):
    return "--" + name.replace("_", "-")


@dataclasses.dataclass
class CliConfig:
    cache_dir: str = DEFAULT_CACHE_DIR
    default_tolerance_scale: float = 1.0


def _read_text(path):
    """The text of an input file (--config, --problem); a file that cannot be
    read or is not UTF-8 is a DomainError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from None


def load_config(path):
    config = CliConfig()
    if path is None:
        return config
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
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

    def add_common(p, csv=False, cached=True):
        output = p.add_mutually_exclusive_group()
        output.add_argument("--json", action="store_true", help="emit a single JSON document")
        if csv:  # only sum and verify have a CSV rendering; elsewhere --csv is a usage error
            output.add_argument("--csv", action="store_true", help="emit one CSV row per case")
        if cached:  # verify never uses the cache, so --no-cache is a usage error there
            p.add_argument("--no-cache", action="store_true", help="bypass the result cache")
        p.add_argument("--cache-dir", help="cache directory (env DELTASUM_CACHE overrides config)")
        p.add_argument("--config", help="config file with 'key = value' lines")

    p_sum = sub.add_parser("sum", help="compute one exponential/character sum")
    p_sum.add_argument("kind", choices=tuple(SUMS))
    for name, kinds in _SUM_READERS.items():
        p_sum.add_argument(_flag(name), type=int, help="read by " + ", ".join(kinds))
    add_common(p_sum, csv=True)

    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--grid-preset", default="default", choices=("default", "smoke"))
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None,
                          help="trial count of the reciprocity suite")
    p_verify.add_argument("--tolerance-scale", type=float, default=None)
    add_common(p_verify, csv=True, cached=False)

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
    for field in dataclasses.fields(TOY_PARAMS):  # each flag overrides one field of the preset
        p_int.add_argument("--" + field.name, type=type(getattr(TOY_PARAMS, field.name)))
    p_int.add_argument("--theta", type=float)
    p_int.add_argument("--window", choices=("plateau", "bump"), default="plateau")
    p_int.add_argument("--tol", type=float, default=1e-12)
    add_common(p_int)
    return parser


def _render_sum(value, args):
    if isinstance(value, int):  # ramanujan: an exact integer
        return json.dumps({"value": value}) if args.json else str(value)
    payload = {"re": value.value.real, "im": value.value.imag,
               "terms": value.terms, "est_error": value.est_error}
    if args.json:
        return json.dumps(payload)
    if args.csv:
        return ",".join(repr(field) for field in payload.values())
    return (f"value = {payload['re']!r} + {payload['im']!r}i  "
            f"(terms={payload['terms']}, est_error={payload['est_error']!r})")


def run_sum(args, config):
    params = _SUM_PARAMS[args.kind]
    given = {name: getattr(args, name) for name in _SUM_READERS
             if getattr(args, name) is not None}
    extra = [_flag(name) for name in given if name not in params]
    if extra:
        raise InvalidValue(f"sum {args.kind} does not take {', '.join(extra)}")
    missing = [_flag(name) for name, param in params.items()
               if param.default is param.empty and name not in given]
    if missing:
        raise DomainError(f"missing required flags: {', '.join(missing)}")
    return _render_sum(SUMS[args.kind](**given), args), 0


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
        text = csv_line(report.csv_row()[:5])
    else:
        text = (f"suite={report.suite} cases={report.cases} "
                f"max_deviation={report.max_deviation!r} passed={str(report.passed).lower()}")
    return text, 0 if report.passed else 1


def run_optimize(args, config):
    if args.paper:
        problem = paper_bound_problem()
    else:
        problem = parse_problem_file(_read_text(args.problem))
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
    if args.window == "bump" and args.theta is not None:
        raise InvalidValue("integral --window bump does not take --theta")
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
    material["_numpy"] = np.__version__  # a new numpy may change the last bits of a sum
    material["_python"] = sys.version
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
        use_cache = hasattr(args, "no_cache") and not args.no_cache
        key = _cache_key(args) if use_cache else None
        if use_cache:
            hit = _cache_read(key, config)
            if hit is not None:
                sys.stdout.write(hit["stdout"])
                return int(hit["exit_code"])
        text, code = RUNNERS[args.command](args, config)
        out = text + "\n"
        if use_cache:
            _cache_write(key, {"stdout": out, "exit_code": code}, config)
        sys.stdout.write(out)
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
