"""Run the benchmark over every workload: a report, or a steadiness check.

    python3 perfbench/suite.py report [--seed 1] [--seconds N]
    python3 perfbench/suite.py steadiness [--runs 10] [--sets 2]

Both spawn ``perfbench/run.py`` exactly as BENCHMARK.json's command does,
one run at a time, and read the JSON object on its last stdout line.
The workloads are those of BENCHMARK.json.

``report`` prints every end-to-end metric (from a ``--trace 0`` run) and
every per-layer metric (from a ``--trace 1`` run) by name and unit, per
workload, with pass counts and quartiles.  It also prints each layer's
share of the traced pass and checks that self times plus the remainder add
up to the traced pass.

``steadiness`` makes ``--sets`` sets of ``--runs`` seeds each (seeds 1,
2, ...).  Within a seed it cycles through the workloads, so a slow phase
of the host hits all of them alike.  Per set it reports each end-to-end
metric's median and quartile spread (q3 - q1) / median against the
metric's bound, and the drift of each set's median from the first set's.
Every metric, set-up time too, must keep its spread and drift within its
bound.  Then it runs ``--trace 1`` twice on one seed, and once on a
held-out seed, and compares every count exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def bench_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One benchmark run: (result object, its '#' comment lines)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), [line for line in lines[:-1] if line.startswith("# ")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def report(args) -> int:
    config = bench_config()
    workloads = [w["name"] for w in config["workloads"]]
    e2e = [m["name"] for m in config["end_to_end"]]
    layers = [m["name"] for m in config["per_layer"]]
    status = 0
    for workload in workloads:
        print(f"== {workload} (seed {args.seed}, {args.seconds} s per run)")
        for trace, names in ((0, e2e), (1, layers)):
            result, comments = run_once(workload, args.seed, args.seconds, trace)
            for line in comments:
                if line.startswith(("# passes", "# job ")):
                    print(f"  {line[2:]}")
            detail = {line.split()[1]: line for line in comments if len(line.split()) > 1}
            for name in names:
                metric = result["metrics"][name]
                extra = detail.get(name, "").partition("(")[2].rstrip(")")
                value = metric["value"]
                text = str(value) if isinstance(value, int) else f"{value:.6g}"
                print(f"  {name:34s} {text:<14s} {metric['unit']:6s} {extra}")
            print(f"  correct {result['correct']}, failed {result['failed']} "
                  f"of {result['attempted']} job runs")
            status |= not result["correct"]
            if trace:
                status |= share_table(result["metrics"])
    return status


def share_table(metrics: dict) -> int:
    """Print each layer's share of the traced pass; 1 if they do not add up."""
    total = metrics["traced_pass_s"]["value"]
    selfs = {name: m["value"] for name, m in metrics.items()
             if m["unit"] == "s" and name not in
             ("traced_pass_s", "untraced_pass_s", "remainder_s", "trace_overhead_s")}
    parts = dict(selfs, remainder_s=metrics["remainder_s"]["value"])
    shares = ", ".join(f"{name} {value / total:.1%}" for name, value in
                       sorted(parts.items(), key=lambda kv: -kv[1]) if value / total >= 0.01)
    print(f"  shares of the traced pass: {shares}")
    # Medians of per-pass sums do not add exactly when there are several passes.
    gap = abs(sum(parts.values()) - total) / total
    print(f"  self times + remainder vs traced pass: {gap:.2%} apart (median of passes)")
    return int(gap > 0.05)


def steadiness(args) -> int:
    config = bench_config()
    seconds = config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    metrics = config["end_to_end"]
    values = {(s, w, m["name"]): [] for s in range(args.sets) for w in workloads for m in metrics}
    started = time.time()
    for set_index in range(args.sets):
        for run in range(args.runs):
            seed = 1 + run
            for workload in workloads:
                result, _ = run_once(workload, seed, seconds, 0)
                for metric in metrics:
                    values[set_index, workload, metric["name"]].append(
                        result["metrics"][metric["name"]]["value"])
                print(f"set {set_index} seed {seed} {workload}: " + ", ".join(
                    f"{m['name']} {result['metrics'][m['name']]['value']:.4g}" for m in metrics)
                    + f" ({time.time() - started:.0f} s)", flush=True)

    status = 0
    print(f"\n{'workload':14s} {'metric':12s} {'set':>3s} {'median':>10s} {'spread':>7s} "
          f"{'bound':>6s} {'drift':>7s}  verdict")
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first = statistics.median(values[0, workload, name])
            for set_index in range(args.sets):
                series = values[set_index, workload, name]
                med = statistics.median(series)
                sp = spread(series) if len(series) > 1 else 0.0
                worse = (med - first) / first if metric["better"] == "lower" else (first - med) / first
                ok_spread = sp <= bound
                verdict = "steady" if sp < bound / 3 else ("within bound" if ok_spread else "TOO WIDE")
                if worse > bound:
                    verdict += ", DRIFT"
                status |= (not ok_spread) or worse > bound
                print(f"{workload:14s} {name:12s} {set_index:3d} {med:10.5g} {sp:7.2%} "
                      f"{bound:6.0%} {worse:+7.2%}  {verdict}")
    status |= count_repeats(workloads, 1, 1 + args.runs, seconds)
    return status


def count_repeats(workloads, seed: int, held_out: int, seconds: int) -> int:
    """Counts must repeat exactly for one seed; list those a new seed moves."""
    status = 0
    for workload in workloads:
        runs = [run_once(workload, s, seconds, 1)[0] for s in (seed, seed, held_out)]
        counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"} for r in runs]
        ok = [(r["attempted"] - r["failed"]) / r["attempted"] for r in runs]
        same = counts[0] == counts[1] and ok[0] == ok[1]
        moved = sorted(k for k in counts[0] if counts[0][k] != counts[2][k])
        status |= not same
        print(f"{workload}: counts for seed {seed} {'repeat exactly' if same else 'DIFFER'}; "
              f"held-out seed {held_out}: ok share {ok[2]:.4g} vs {ok[0]:.4g}, "
              f"counts moved: {', '.join(moved) or 'none'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("report", help="every metric of every workload, one seed")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.set_defaults(func=report)
    p = sub.add_parser("steadiness", help="spread and drift of the end-to-end metrics")
    p.add_argument("--runs", type=int, default=10, help="seeds per set")
    p.add_argument("--sets", type=int, default=2)
    p.set_defaults(func=steadiness)
    args = parser.parse_args(argv)
    if args.mode == "report" and args.seconds is None:
        args.seconds = bench_config()["run_seconds"]
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
