"""Command-line interface.

Subcommands: limit-pmf, finite-pmf, oracle-pmf, cf, sample, estimate,
verify.  Outputs are CSV (with header) or JSON, formatted so identical
argv gives byte-identical bytes.  Exit codes: 0 success, 2 inadmissible
model (the signed pmf is still printed), 3 invalid input or arguments,
4 an identity failed during verify.
"""

import argparse
import json
import sys

import numpy as np

from .core import (
    CorrcountError,
    CorrelationModel,
    IdentityCheckError,
    InadmissiblePmfError,
    Pmf,
)
from .finite import count_pmf_from_joint, finite_count_pmf
from .limit import char_fn, limit_pmf
from .montecarlo import (
    DEFAULT_BOOTSTRAP,
    MixtureSpec,
    build_mixture_joint,
    estimate_coefficients,
    sample_counts,
)
from .verify import run_identity_suite

EXIT_OK = 0
EXIT_INADMISSIBLE = 2
EXIT_BAD_INPUT = 3
EXIT_VERIFY_FAILED = 4

DEFAULT_MASS_TOL = 1e-12


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; this CLI reserves 2 for
    # inadmissible models, so argument problems are rerouted to exit 3.
    def error(self, message):
        raise _UsageError(message)


def _parse_coefficients(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad coefficient list {text!r}: {exc}") from exc
    if not values:
        raise _UsageError("empty coefficient list")
    return values


def _parse_mixture(text: str) -> MixtureSpec:
    atoms = []
    try:
        for item in text.split(","):
            p, w = item.split(":")
            atoms.append((float(p), float(w)))
    except ValueError as exc:
        raise _UsageError(f"bad mixture {text!r}; expected p:w,p:w,...") from exc
    return MixtureSpec(tuple(atoms))


def _parse_ugrid(text: str) -> np.ndarray:
    try:
        start_s, stop_s, count_s = text.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError as exc:
        raise _UsageError(f"bad u grid {text!r}; expected start:stop:count") from exc
    if count < 1:
        raise _UsageError(f"u grid count must be >= 1, got {count}")
    return np.linspace(start, stop, count)


def _resolve_model(args, need_n: bool) -> CorrelationModel:
    if getattr(args, "model", None):
        try:
            with open(args.model, encoding="utf-8") as fh:
                model = CorrelationModel.from_json(fh.read())
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read model file {args.model}: {exc}") from exc
    elif getattr(args, "c", None):
        model = CorrelationModel.from_coefficients(_parse_coefficients(args.c))
    else:
        raise _UsageError("a model is required: pass --c or --model")
    if getattr(args, "n", None) is not None:
        model = CorrelationModel(l_max=model.l_max, c=model.c, n=args.n)
    if need_n and model.n is None:
        raise _UsageError("this command requires an event count: pass --n")
    return model


def _emit_pmf(pmf: Pmf, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "p": list(pmf.values),
            "tail_bound": pmf.tail_bound,
            "admissible": pmf.admissible,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("s,p")
        for s, p in enumerate(pmf.values):
            print(f"{s},{p!r}")


def _pmf_exit(pmf: Pmf) -> int:
    if pmf.admissible:
        return EXIT_OK
    s, value = pmf.most_negative()
    print(
        f"inadmissible model: p({s}) = {value!r} below tolerance",
        file=sys.stderr,
    )
    return EXIT_INADMISSIBLE


def _cmd_limit_pmf(args) -> int:
    model = _resolve_model(args, need_n=False)
    pmf = limit_pmf(model, mass_tolerance=args.tol)
    _emit_pmf(pmf, args.format)
    return _pmf_exit(pmf)


def _cmd_finite_pmf(args) -> int:
    model = _resolve_model(args, need_n=True)
    pmf = finite_count_pmf(model)
    _emit_pmf(pmf, args.format)
    return _pmf_exit(pmf)


def _cmd_oracle_pmf(args) -> int:
    if args.n is None:
        raise _UsageError("oracle-pmf requires --n")
    joint = build_mixture_joint(_parse_mixture(args.mixture), args.n)
    pmf = count_pmf_from_joint(joint)
    _emit_pmf(pmf, args.format)
    return _pmf_exit(pmf)


def _cmd_cf(args) -> int:
    model = _resolve_model(args, need_n=False)
    grid = char_fn(model, _parse_ugrid(args.u))
    if args.format == "json":
        payload = {
            "u": list(grid.u),
            "re": [z.real for z in grid.chi],
            "im": [z.imag for z in grid.chi],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("u,re,im")
        for u, z in zip(grid.u, grid.chi):
            print(f"{u!r},{z.real!r},{z.imag!r}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    model = _resolve_model(args, need_n=False)
    if model.n is not None:
        pmf = finite_count_pmf(model)
    else:
        pmf = limit_pmf(model, mass_tolerance=args.tol)
    counts = sample_counts(pmf, args.count, args.seed)
    out = sys.stdout
    for chunk_start in range(0, len(counts), 65536):
        chunk = counts[chunk_start : chunk_start + 65536]
        out.write("\n".join(map(str, chunk.tolist())))
        out.write("\n")
    return EXIT_OK


def _read_counts(path: str) -> list[int]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise _UsageError(f"cannot read counts file {path}: {exc}") from exc
    if not lines:
        raise _UsageError(f"counts file {path} is empty")
    # CSV is detected from the first line; a non-numeric first field there
    # marks a header row ("sample_index,count"), which is dropped.
    csv = "," in lines[0]
    if csv and not lines[0].split(",")[0].strip().isdigit():
        lines = lines[1:]
    try:
        return [int(line.split(",")[1]) if csv else int(line) for line in lines]
    except (IndexError, ValueError) as exc:
        raise _UsageError(f"bad counts file {path}: {exc}") from exc


def _cmd_estimate(args) -> int:
    counts = _read_counts(args.input)
    report = estimate_coefficients(
        counts, l_max=args.lmax, n_bootstrap=args.bootstrap, seed=args.seed
    )
    print(report.to_json())
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_identity_suite(n=args.n, trials=args.trials, seed=args.seed)
    failed = False
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status} {check.name}: max |err| = {check.worst:.3e} (tol {check.tolerance:.1e})"
        if check.detail:
            line += f" [{check.detail}]"
        print(line)
        failed = failed or not check.passed
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="corrcount", description=__doc__)
    parser.add_argument(
        "--config",
        help="JSON job file; mirrors the flags of one subcommand",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p, with_model=True, with_tol=True):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if with_model:
            p.add_argument("--c", help="coefficients C_1,C_2,... as a comma list")
            p.add_argument("--model", help="JSON model file")
            p.add_argument("--n", type=int, help="event count N")
        if with_tol:
            p.add_argument(
                "--tol",
                type=float,
                default=DEFAULT_MASS_TOL,
                help="mass tolerance for limiting pmfs",
            )

    p = sub.add_parser("limit-pmf", help="limiting count pmf")
    add_common(p)
    p.set_defaults(func=_cmd_limit_pmf)

    p = sub.add_parser("finite-pmf", help="exact count pmf at finite N")
    add_common(p, with_tol=False)
    p.set_defaults(func=_cmd_finite_pmf)

    p = sub.add_parser("oracle-pmf", help="count pmf of a Bernoulli-mixture joint")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--n", type=int, help="event count N")
    p.add_argument("--mixture", required=True, help="atoms p:w,p:w,...")
    p.set_defaults(func=_cmd_oracle_pmf)

    p = sub.add_parser("cf", help="characteristic function on a u grid")
    add_common(p, with_tol=False)
    p.add_argument("--u", required=True, help="grid start:stop:count (inclusive)")
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("sample", help="draw counts from the model's pmf")
    add_common(p)
    p.add_argument("--count", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="estimate coefficients from counts")
    p.add_argument("--input", required=True, help="counts file (lines or CSV)")
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--bootstrap", type=int, default=DEFAULT_BOOTSTRAP)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("verify", help="run the cross-module identity suite")
    p.add_argument("--n", type=int, default=6, help="largest joint size")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    return parser


_CONFIG_FLAGS = {
    "model": "--model",
    "c": "--c",
    "n": "--n",
    "output_format": "--format",
    "seed": "--seed",
    "mass_tolerance": "--tol",
    "u": "--u",
    "count": "--count",
    "mixture": "--mixture",
    "input": "--input",
    "lmax": "--lmax",
    "n_bootstrap": "--bootstrap",
    "trials": "--trials",
}


def _argv_from_config(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict) or "command" not in config:
        raise _UsageError(f"config {path} must be an object with a 'command' key")
    argv = [str(config["command"])]
    for key, value in config.items():
        if key == "command" or value is None:
            continue
        if key == "model" and isinstance(value, dict):
            model = CorrelationModel.from_json_dict(value)
            argv += ["--c", ",".join(repr(x) for x in model.c)]
            if model.n is not None:
                argv += ["--n", str(model.n)]
            continue
        flag = _CONFIG_FLAGS.get(key)
        if flag is None:
            raise _UsageError(f"unknown config key {key!r}")
        argv += [flag, str(value)]
    return argv


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is not None and args.config:
            raise _UsageError("pass either a subcommand or --config, not both")
        if args.command is None:
            if not args.config:
                raise _UsageError("a subcommand or --config is required")
            args = parser.parse_args(_argv_from_config(args.config))
            if args.command is None:
                raise _UsageError("config did not name a subcommand")
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InadmissiblePmfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except IdentityCheckError as exc:
        print(f"internal identity violation: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except CorrcountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
