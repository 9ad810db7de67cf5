"""Command-line interface.

Subcommands: limit-pmf, finite-pmf, oracle-pmf, cf, sample, estimate,
verify.  Every file format is read and written here: model and config
files are JSON, counts files are lines or CSV, and outputs are CSV (with
header) or JSON, formatted so identical argv gives byte-identical bytes.
Exit codes: 0 success, 1 stdout closed before all output was written (a
broken pipe), 2 inadmissible model (the signed pmf is still printed), 3
invalid input or arguments, 4 an identity failed during verify.

A config file (--config) is a JSON object: "command" names a subcommand,
and each other key sets one of its flags (see _FLAGS) by a value of the
flag's JSON type, or by null to set nothing.  Any other command, key or
value is refused before the flags are parsed, naming the key.

``python -m corrcount`` and the ``corrcount`` script run :func:`run`: it
flushes stdout and stderr, then ends the process by ``os._exit`` without
the interpreter's teardown, so ``atexit`` handlers do not run.  Under a
tracer or profiler the process exits normally.  :func:`main` returns the
exit code to a caller in process.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys
from typing import TYPE_CHECKING, NoReturn

from .core import (
    MAX_POINTS,
    BadShapeError,
    CorrcountError,
    CorrelationModel,
    InadmissiblePmfError,
    Pmf,
    is_int_in,
)
from .finite import count_pmf_from_joint, finite_count_pmf
from .limit import DEFAULT_MASS_TOL, char_fn, limit_pmf
from .montecarlo import (
    DEFAULT_BOOTSTRAP,
    MixtureSpec,
    build_mixture_joint,
    estimate_coefficients,
    sample_blocks,
)
from .verify import run_identity_suite

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_INADMISSIBLE = 2
EXIT_BAD_INPUT = 3
EXIT_VERIFY_FAILED = 4

# Characters of a counts file parsed per np.loadtxt call.
_READ_CHARS = 32768


class _UsageError(CorrcountError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token such as -1,0.5 or -.5:1:3 is a value: no option looks like it.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits with status 2 by default; this CLI reserves 2 for
    # inadmissible models, so argument problems are rerouted to exit 3.
    def error(self, message):
        raise _UsageError(message)


def _parse_mixture(text: str) -> MixtureSpec:
    atoms = []
    try:
        for item in text.split(","):
            p, w = item.split(":")
            atoms.append((float(p), float(w)))
    except ValueError as exc:
        raise _UsageError(f"bad mixture {text!r}; expected p:w,p:w,...") from exc
    return MixtureSpec(tuple(atoms))


def _parse_ugrid(text: str) -> list[float]:
    try:
        start_s, stop_s, count_s = text.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError as exc:
        raise _UsageError(f"bad u grid {text!r}; expected start:stop:count") from exc
    if not 1 <= count <= MAX_POINTS:
        raise _UsageError(f"u grid count must lie in 1..{MAX_POINTS}, got {count}")
    span = stop - start
    # A non-finite span also catches a NaN or infinite start or stop.
    if not math.isfinite(span):
        raise _UsageError(f"bad u grid {text!r}; start, stop and their span must be finite")
    # The points of np.linspace(start, stop, count), bit for bit.
    if count == 1:
        return [0.0 * span + start]
    step = span / (count - 1)
    if step == 0.0:  # the step underflows: scale the span last
        grid = [i / (count - 1) * span + start for i in range(count)]
    else:
        grid = [i * step + start for i in range(count)]
    grid[-1] = stop
    return grid


def _resolve_model(args, need_n: bool | None) -> CorrelationModel:
    """The model of --c, of --model or of a --config model object, with --n applied.

    ``need_n`` True requires an event count, False refuses one (the
    command computes the N -> infinity law) and None accepts either.  The
    count is checked before the model is built, so its refusal comes ahead
    of the model's own.  A built model whose top coefficient is 0 is valid,
    of lower order, and gets a one-line notice on stderr.
    """
    if args.model is not None and args.c is not None:
        raise _UsageError("--model and --c both set the coefficients: pass one of them")
    data = {}
    if isinstance(args.model, dict):
        data = args.model
    elif args.model is not None:
        data = _load_json(args.model, "model file")
        if not isinstance(data, dict):
            raise _UsageError(f"model file {args.model} must hold a JSON object")
    elif args.c is not None:
        try:
            c = [float(tok) for tok in args.c.split(",")]
        except ValueError as exc:
            raise _UsageError(f"bad coefficient list {args.c!r}: {exc}") from exc
    else:
        raise _UsageError("a model is required: pass --c or --model")
    n = data.get("n")
    if n is None:
        n = args.n
    elif args.n is not None:
        raise _UsageError("--model and --n both set the event count: pass one of them")
    if need_n and n is None:
        raise _UsageError("this command requires an event count: pass --n")
    if need_n is False and n is not None:
        raise _UsageError(
            f"{args.command} computes the N -> infinity law and takes no event "
            f"count, got n = {n}: use finite-pmf for a finite N"
        )
    model = _model_of(data, n) if args.c is None else CorrelationModel(c, n)
    if model.c[-1] == 0.0:
        notice = f"C_{model.l_max} = 0: model is correlated to an order below its declared l_max"
        print(f"warning: {notice}", file=sys.stderr)
    return model


def _model_of(data: dict, n) -> CorrelationModel:
    """The model of a JSON model object, whose ``l_max`` must be the length of ``c``.

    Raises:
        BadShapeError: a field is missing, or ``l_max`` is not a positive
            integer equal to the length of ``c``.
        And what the CorrelationModel constructor raises for ``c`` and ``n``.
    """
    try:
        l_max = data["l_max"]
        c = data["c"]
    except KeyError as exc:
        raise BadShapeError(f"model JSON needs 'l_max' and 'c': {exc}") from exc
    if not is_int_in(l_max, 1):
        raise BadShapeError(f"l_max must be a positive integer, got {l_max!r}")
    model = CorrelationModel(c, n)
    if l_max != model.l_max:
        raise BadShapeError(f"expected {l_max} coefficients, got {model.l_max}")
    return model


def _load_json(path: str, what: str):
    """The value held by a JSON file; ``what`` names the file in a refusal."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise _UsageError(f"cannot read {what} {path}: {exc}") from exc


def _print_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, sort_keys=True))


def _write_rows(rows) -> None:
    """Write an iterable of lines to stdout, joined in blocks of 65536."""
    rows = iter(rows)
    while block := "".join(itertools.islice(rows, 65536)):
        sys.stdout.write(block)


def _emit_pmf(pmf: Pmf, fmt: str) -> int:
    """Print a pmf; return 2, naming its most negative entry on stderr, if inadmissible."""
    if fmt == "json":
        _print_json({
            "p": list(pmf.values),
            "tail_bound": pmf.tail_bound,
            "admissible": pmf.admissible,
        })
    else:
        _write_rows(itertools.chain(
            ["s,p\n"], (f"{s},{p!r}\n" for s, p in enumerate(pmf.values))
        ))
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
    return _emit_pmf(pmf, args.format)


def _cmd_finite_pmf(args) -> int:
    model = _resolve_model(args, need_n=True)
    pmf = finite_count_pmf(model)
    return _emit_pmf(pmf, args.format)


def _cmd_oracle_pmf(args) -> int:
    joint = build_mixture_joint(_parse_mixture(args.mixture), args.n)
    pmf = count_pmf_from_joint(joint)
    return _emit_pmf(pmf, args.format)


def _cmd_cf(args) -> int:
    model = _resolve_model(args, need_n=False)
    grid = char_fn(model, _parse_ugrid(args.u))
    if args.format == "json":
        _print_json({
            "u": list(grid.u),
            "re": [z.real for z in grid.chi],
            "im": [z.imag for z in grid.chi],
        })
    else:
        _write_rows(itertools.chain(
            ["u,re,im\n"],
            (f"{u!r},{z.real!r},{z.imag!r}\n" for u, z in zip(grid.u, grid.chi)),
        ))
    return EXIT_OK


def _cmd_sample(args) -> int:
    model = _resolve_model(args, need_n=None)
    pmf = limit_pmf(model) if model.n is None else finite_count_pmf(model)
    # Counts lie in the pmf support, so one line per count up to the largest
    # seen so far is a small table, and looking lines up beats formatting
    # each count.
    lines: list[str] = []
    for block in sample_blocks(pmf, args.count, args.seed):
        lines += (f"{k}\n" for k in range(len(lines), int(block.max()) + 1))
        sys.stdout.write("".join(map(lines.__getitem__, block.tolist())))
    return EXIT_OK


def _parses_as_float(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _read_counts(path: str) -> Iterator[np.ndarray]:
    """The counts of a counts file, as an iterator over int64 blocks.

    The file is opened and read once, one read of whole lines at a time,
    so it may be a pipe, and memory stays bounded by one read whatever the
    length of the file.  The first nonblank line decides the format: CSV
    if it has a comma, and a header row ("sample_index,count"), which is
    dropped, if its first field does not parse as a number.  Every fault
    of the file, an unreadable or empty file and a header with no rows
    included, is refused as the file is read.

    np.loadtxt parses the lines of each read behind one sentinel row.  The
    sentinel holds a plain file to one column, as its first row does in one
    pass over the file, and keeps a read of blank lines from being an empty
    input.  loadtxt numbers the rows of a conversion error from 0, the
    sentinel's row included, and those of its other errors from 1, so a row
    it names loses 1 in the second case only, and gains the rows of earlier
    reads.  Each row named then counts the nonempty lines after the header
    from 1, as in one pass.
    """
    import numpy as np

    csv = header = None  # unknown until the first nonblank line
    done = 0
    try:
        with open(path, encoding="utf-8") as fh:
            reads = _whole_lines(fh)
            for text in reads:
                if csv is None:
                    first, _, after = text.lstrip().partition("\n")
                    if not first:
                        continue
                    csv = "," in first
                    header = csv and not _parses_as_float(first.split(",")[0])
                    if header:
                        text = after
                    sentinel = "0,0\n" if csv else "0\n"
                try:
                    block = np.loadtxt(
                        (sentinel + text).split("\n"), dtype=np.int64, comments=None,
                        delimiter=",", ndmin=1, usecols=1 if csv else None, encoding="utf-8",
                    )[1:]
                except ValueError:
                    # A header with only blank lines after it, spaces or not, has no rows.
                    unread = itertools.chain([text], reads)
                    if header and not done and not any(map(str.strip, unread)):
                        break
                    raise
                done += block.size
                yield block
    except OSError as exc:
        raise _UsageError(f"cannot read counts file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # its position counts within one decoder read
        where = f"byte 0x{exc.object[exc.start]:02x} past the first {done} count rows"
        raise _UsageError(f"bad counts file {path}: {where} is not UTF-8") from exc
    except ValueError as exc:
        message = str(exc)
        head, at, rest = message.rpartition(" at row ")
        row = re.match(r"\d+", rest)
        if at and row:  # loadtxt counts rows from 0 only in a conversion error
            number = int(row[0]) - (not message.startswith("could not convert")) + done
            message = f"{head}{at}{number}{rest[row.end():]}"
        raise _UsageError(f"bad counts file {path}: {message}") from exc
    if csv is None:
        raise _UsageError(f"counts file {path} is empty")
    if header and not done:
        raise _UsageError(f"counts file {path} has a header but no count rows")


def _whole_lines(fh) -> Iterator[str]:
    """The text of an open file in reads of about _READ_CHARS, each cut after a newline."""
    tail = ""
    while chunk := fh.read(_READ_CHARS):
        text = tail + chunk
        cut = text.rfind("\n") + 1
        yield text[:cut]
        tail = text[cut:]
    yield tail


def _cmd_estimate(args) -> int:
    counts = _read_counts(args.input)
    report = estimate_coefficients(
        counts, l_max=args.lmax, n_bootstrap=args.bootstrap, seed=args.seed
    )
    _print_json(vars(report))  # its fields; json writes a tuple as an array
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


# Each flag once: the config key that sets it, the JSON type of that key's
# value, and its argparse keywords.
_FLAGS = {
    "--format": ("output_format", "string", dict(choices=("csv", "json"), default="csv")),
    "--c": ("c", "string", dict(help="coefficients C_1,C_2,... as a comma list")),
    "--model": ("model", "string or object", dict(help="JSON model file")),
    "--n": ("n", "integer", dict(type=int, help="event count N")),
    "--tol": ("mass_tolerance", "number", dict(
        type=float, default=DEFAULT_MASS_TOL, help="mass tolerance for limiting pmfs")),
    "--mixture": ("mixture", "string", dict(required=True, help="atoms p:w,p:w,...")),
    "--u": ("u", "string", dict(required=True, help="grid start:stop:count (inclusive)")),
    "--count": ("count", "integer", dict(type=int, required=True, help="number of samples")),
    "--seed": ("seed", "integer", dict(type=int, default=0)),
    "--input": ("input", "string", dict(required=True, help="counts file (lines or CSV)")),
    "--lmax": ("lmax", "integer", dict(type=int, required=True)),
    "--bootstrap": ("n_bootstrap", "integer", dict(type=int, default=DEFAULT_BOOTSTRAP)),
    "--trials": ("trials", "integer", dict(type=int, default=50)),
}
# The types json.load gives each JSON type; a bool is neither integer nor number.
_JSON_TYPES = {
    "string": (str,), "integer": (int,), "number": (int, float), "string or object": (str, dict),
}
# Each subcommand: its help, its handler and the flags it takes, in --help order.
_COMMANDS = {
    "limit-pmf": ("limiting count pmf", _cmd_limit_pmf, "--format --c --model --n --tol"),
    "finite-pmf": ("exact count pmf at finite N", _cmd_finite_pmf, "--format --c --model --n"),
    "oracle-pmf": (
        "count pmf of a Bernoulli-mixture joint", _cmd_oracle_pmf, "--format --n --mixture"
    ),
    "cf": ("characteristic function on a u grid", _cmd_cf, "--format --c --model --n --u"),
    "sample": ("draw counts from the model's pmf", _cmd_sample, "--c --model --n --count --seed"),
    "estimate": (
        "estimate coefficients from counts", _cmd_estimate, "--input --lmax --bootstrap --seed"
    ),
    "verify": ("run the cross-module identity suite", _cmd_verify, "--n --trials --seed"),
}
# The only keywords a command sets for itself.
_OVERRIDES = {
    ("oracle-pmf", "--n"): dict(required=True),
    ("verify", "--n"): dict(default=6, help="largest joint size"),
    ("verify", "--seed"): dict(default=1),
}


def build_parser() -> _Parser:
    # --help prints the docstring (None under -OO) up to its config paragraph.
    parser = _Parser(prog="corrcount", description=(__doc__ or "").partition("\n\nA config")[0])
    parser.add_argument("--config", help="JSON job file; mirrors the flags of one subcommand")
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, func, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **{**_FLAGS[flag][2], **_OVERRIDES.get((command, flag), {})})
        p.set_defaults(func=func)
    return parser


def _argv_from_config(path: str) -> tuple[list[str], dict | None]:
    """The argv of a config file's job, and its model object if it has one.

    The job is checked against _FLAGS and _COMMANDS before argparse reads
    it, so that a refusal names the config key.
    """
    config = _load_json(path, "config")
    if not isinstance(config, dict) or "command" not in config:
        raise _UsageError(f"config {path} must be an object with a 'command' key")
    command = config["command"]
    if not isinstance(command, str) or command not in _COMMANDS:
        raise _UsageError("config did not name a subcommand")
    flag_of = {key: flag for flag, (key, _, _) in _FLAGS.items()}
    argv, model = [command], None
    for key, value in config.items():
        if key == "command" or value is None:
            continue
        flag = flag_of.get(key)
        if flag is None:
            raise _UsageError(f"unknown config key {key!r}")
        if flag not in _COMMANDS[command][2].split():
            raise _UsageError(f"{command} takes no {key}")
        kind = _FLAGS[flag][1]
        if type(value) not in _JSON_TYPES[kind]:
            raise _UsageError(f"config key {key!r} must be a JSON {kind}, got {value!r}")
        if isinstance(value, dict):
            model = value
        else:  # one token, so that a value starting with "-" is not read as a flag
            argv.append(f"{flag}={value}")
    return argv, model


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is not None and args.config is not None:
            raise _UsageError("pass either a subcommand or --config, not both")
        if args.command is None:
            if args.config is None:
                raise _UsageError("a subcommand or --config is required")
            argv, model = _argv_from_config(args.config)
            args = parser.parse_args(argv)
            if model is not None:
                args.model = model
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader left (e.g. `| head`)
        _to_devnull(sys.stdout)
        return EXIT_BROKEN_PIPE
    except CorrcountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE if isinstance(exc, InadmissiblePmfError) else EXIT_BAD_INPUT


def run() -> NoReturn:
    """Run :func:`main` on ``sys.argv`` and end the process with its exit code.

    The entry point of ``python -m corrcount`` and of the ``corrcount``
    script.  argparse's SystemExit (``--help``) gives the code as well.
    stdout and stderr are flushed, a reader that has left making the code
    1, and the process then ends by ``os._exit``, without the interpreter's
    teardown of every module and object, so ``atexit`` handlers do not
    run.  Nothing is lost: the package registers no such handler, closes
    every file it opens in a ``with``, and writes only to the two streams.
    Under a tracer or profiler (coverage, ``python -m cProfile``) it raises
    SystemExit instead, so that they write their results at exit.  Any
    other exception propagates, with its traceback.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except BrokenPipeError:
            _to_devnull(stream)
            code = EXIT_BROKEN_PIPE
    if sys.gettrace() or sys.getprofile() or _monitored():
        raise SystemExit(code)
    os._exit(code)


def _to_devnull(stream) -> None:
    """Point a stream whose reader left at devnull.

    A later flush, such as the one at interpreter exit, then stays quiet,
    as the Python docs' note on SIGPIPE advises.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _monitored() -> bool:
    """Whether a sys.monitoring tool is registered (Python 3.12+, where cProfile uses one)."""
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(map(monitoring.get_tool, range(6)))


if __name__ == "__main__":
    run()
