"""corrcount benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it benchmarks ``src/corrcount``
of that checkout and nothing else.

``--trace 0`` times the CLI as users run it: each job is its own
``python -m corrcount`` subprocess, run one at a time and timed from spawn
to exit, with its peak RSS read through ``os.wait4``.  Passes over the
workload's job list repeat until the next pass would overrun ``--seconds``.
Set-up time is the median of several ``corrcount --help`` runs (interpreter
start plus imports), which every job pays.

``--trace 1`` runs the same jobs in-process through ``cli.main`` and
alternates untraced passes with traced ones, in which every public
function of every module is wrapped (see tracer.py).  It reports the self
time of each layer and the counts made at the layer boundaries.

Every job's output is checked (see workloads.py).  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are ``#`` comments for people: the environment record,
per-metric quartiles and pass counts, and per-job outcomes.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import CLI_SPAN, COUNT_METRICS, SPAN_METRICS, Trace
from workloads import WORKLOADS, classify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread: nproc is small, and unpinned OpenBLAS threads make a
# child's CPU time exceed its wall time and widen the spread of set-up
# time.  Applied to the children and, before numpy loads, to this process.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-up probes run between passes, so they sample the whole run rather
# than one phase of the host's speed.
PROBES_PER_PASS = 3
JOB_TIMEOUT_S = 100.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
# wall_s is a sum of job medians (see the "# job" lines), so the quartiles
# printed beside it are those of the pass totals; other values are the
# median of the samples whose quartiles are printed.
SAMPLES_OF = {"wall_s": "pass totals"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def comment(text: str) -> None:
    print(f"# {text}", flush=True)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment_record(env: dict[str, str]) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy; b = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
         "print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    numpy_version, blas, blas_version = json.loads(probe.stdout)
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": f"{blas} {blas_version}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "child_env": dict(PINNED_ENV, PYTHONPATH="src"),
    }


def spawn(argv, out_path: Path, err_path: Path, env) -> tuple[int, float, float]:
    """Run ``python -m corrcount argv``; (exit code, wall s, max RSS MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "corrcount", *argv], stdout=out, stderr=err, cwd=ROOT, env=env
        )
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_maxrss / 1024.0


def check_pass(jobs, results, workdir: Path, log) -> list[str]:
    """Classify each job's result; results[i] = (code, seconds, ...)."""
    outputs: dict[str, str] = {}
    outcomes = []
    for job, result in zip(jobs, results):
        out = (workdir / f"{job.name}.out").read_text(encoding="utf-8", errors="replace")
        err = (workdir / f"{job.name}.err").read_text(encoding="utf-8", errors="replace")
        outcome, reason = classify(job, result[0], out, err, outputs)
        if result[0] in (0, 2):
            outputs[job.name] = out
        outcomes.append(outcome)
        log.setdefault(job.name, []).append((outcome, reason, result[1]))
    return outcomes


def run_passes(seconds: float, one_pass) -> int:
    """Repeat ``one_pass()`` while the next pass is predicted to fit."""
    start = time.perf_counter()
    lengths = []
    while True:
        pass_start = time.perf_counter()
        one_pass()
        lengths.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return len(lengths)


def measure_e2e(jobs, workdir: Path, seconds: float, env, log):
    """Subprocess passes; returns ({metric: (value, samples)}, job outcomes).

    wall_s is the pass time taken job by job: each job's median over the
    passes, summed over the job list.  With only a few passes per run this
    varies less from run to run than the median of the pass totals, since
    each job's median discards that job's slowest run on its own.  The
    other metrics are medians of their samples.
    """
    help_out, help_err = workdir / "help.out", workdir / "help.err"
    setup = []

    def probe():
        code, wall, _ = spawn(["--help"], help_out, help_err, env)
        if code != 0 or "usage" not in help_out.read_text(encoding="utf-8"):
            raise RuntimeError(f"corrcount --help failed with exit {code}")
        setup.append(wall)

    spawn(["--help"], help_out, help_err, env)  # untimed: writes bytecode caches
    job_walls = [[] for _ in jobs]
    walls, rss, ok_ratios, outcomes = [], [], [], []

    def one_pass():
        for _ in range(PROBES_PER_PASS):
            probe()
        results = [
            spawn(job.argv, workdir / f"{job.name}.out", workdir / f"{job.name}.err", env)
            for job in jobs
        ]
        for times, result in zip(job_walls, results):
            times.append(result[1])
        walls.append(sum(r[1] for r in results))
        rss.append(max(r[2] for r in results))
        pass_outcomes = check_pass(jobs, results, workdir, log)
        ok_ratios.append(pass_outcomes.count("ok") / len(jobs))
        outcomes.extend(pass_outcomes)

    passes = run_passes(seconds, one_pass)
    for _ in range(PROBES_PER_PASS):
        probe()
    comment(f"passes {passes}, setup probes {len(setup)}")
    metrics = {"wall_s": (sum(statistics.median(times) for times in job_walls), walls)}
    for name, values in (("setup_s", setup), ("peak_rss_mb", rss), ("ok_ratio", ok_ratios)):
        metrics[name] = (statistics.median(values), values)
    return metrics, outcomes


def run_inprocess(main, jobs, workdir: Path, log, timings: list[float]):
    """One in-process pass through ``main(argv)``; returns (outcomes, stdout bytes, errors)."""
    results, stdout_bytes, errors = [], 0, 0
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(list(job.argv))
            except Exception as exc:  # an uncaught exception exits 1 in a real run
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
            seconds = time.perf_counter() - start
        text = out.getvalue()
        stdout_bytes += len(text.encode("utf-8"))
        errors += code not in (0, 2)
        (workdir / f"{job.name}.out").write_text(text, encoding="utf-8")
        (workdir / f"{job.name}.err").write_text(err.getvalue(), encoding="utf-8")
        results.append((code, seconds))
    timings.append(sum(r[1] for r in results))
    return check_pass(jobs, results, workdir, log), stdout_bytes, errors


def measure_layers(jobs, workdir: Path, seconds: float, log):
    """Alternate untraced and traced in-process passes.

    Returns ({metric: (median, samples)}, counts of one traced pass, outcomes).
    """
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import corrcount
    import corrcount.cli

    if Path(corrcount.__file__).resolve().parent != SRC / "corrcount":
        raise RuntimeError(f"imported corrcount from {corrcount.__file__}, not {SRC}")

    untraced, traced, remainders = [], [], []
    layer_samples = {name: [] for name in SPAN_METRICS}
    counts_seen: list[dict] = []
    outcomes = []

    def traced_pass():
        trace = Trace()
        trace.install()
        try:
            main = trace.wrap(CLI_SPAN, corrcount.cli.main)
            pass_outcomes, stdout_bytes, errors = run_inprocess(main, jobs, workdir, log, traced)
        finally:
            trace.uninstall()
        times = trace.self_times()
        for name in SPAN_METRICS:
            layer_samples[name].append(times[name])
        remainders.append(traced[-1] - times["roots"])
        counts = {name: trace.counts[name] for name in COUNT_METRICS}
        counts.update({"cli.jobs": len(jobs), "cli.errors": errors, "cli.stdout_bytes": stdout_bytes})
        counts_seen.append(counts)
        outcomes.extend(pass_outcomes)

    def pair():
        # Alternate which side goes first so a slow phase hits both alike.
        if len(traced) % 2 == 0:
            outcomes.extend(run_inprocess(corrcount.cli.main, jobs, workdir, log, untraced)[0])
            traced_pass()
        else:
            traced_pass()
            outcomes.extend(run_inprocess(corrcount.cli.main, jobs, workdir, log, untraced)[0])

    passes = run_passes(seconds, pair)
    comment(f"passes {passes} traced + {passes} untraced, in-process")
    if any(c != counts_seen[0] for c in counts_seen):
        comment(f"WARNING: counts differ between traced passes: {counts_seen}")
    overhead = [t - u for t, u in zip(traced, untraced)]
    samples = dict(layer_samples)
    samples.update({"traced_pass_s": traced, "untraced_pass_s": untraced,
                    "remainder_s": remainders, "trace_overhead_s": overhead})
    metrics = {name: (statistics.median(values), values) for name, values in samples.items()}
    return metrics, counts_seen[0], outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "corrcount" / "__init__.py").is_file():
        print(f"error: no corrcount sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workdir = WORK / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env = child_env()
        comment("env " + json.dumps(environment_record(env), sort_keys=True))
        jobs = WORKLOADS[args.workload](args.seed, workdir)
        comment(f"workload {args.workload} seed {args.seed} trace {args.trace} jobs {len(jobs)}")
        log: dict[str, list] = {}
        if args.trace:
            timed, counts, outcomes = measure_layers(jobs, workdir, args.seconds, log)
            units = {name: "s" for name in timed}
            units.update({name: "count" for name in counts})
            units["cli.stdout_bytes"] = "bytes"
        else:
            timed, outcomes = measure_e2e(jobs, workdir, args.seconds, env, log)
            counts, units = {}, E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for job in jobs:
        entries = log[job.name]
        kinds = sorted({outcome for outcome, _, _ in entries})
        reasons = sorted({reason for _, reason, _ in entries if reason})
        median_s = statistics.median(seconds for _, _, seconds in entries)
        comment(f"job {job.name}: {'/'.join(kinds)} x{len(entries)}, median {median_s:.4f} s"
                + (f" -- {reasons[0]}" if reasons else "") + f" :: corrcount {' '.join(job.argv)}")

    metrics = {}
    for name, (value, samples) in timed.items():
        q1, med, q3 = quartiles(samples)
        metrics[name] = {"value": value, "unit": units[name]}
        comment(f"{name:34s} {value:.6g} {units[name]}  "
                f"({SAMPLES_OF.get(name, 'samples')}: median {med:.6g}, q1 {q1:.6g}, "
                f"q3 {q3:.6g}, n {len(samples)})")
    for name, value in counts.items():
        metrics[name] = {"value": value, "unit": units[name]}
        comment(f"{name:34s} {value} {units[name]}")

    failed = sum(outcome != "ok" for outcome in outcomes)
    if not args.trace:
        comment(f"{'fail_ratio':34s} {failed / len(outcomes):.6g} (failed/attempted job runs)")
    result = {
        "correct": "wrong" not in outcomes,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
