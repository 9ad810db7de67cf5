import ast
import contextlib
import hashlib
import json
import math
import os
import pstats
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from corrcount.cli import _parse_ugrid, _read_counts, main

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
HELP = ROOT / "tests" / "help"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_pmf_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == "s,p"
    out = {}
    for line in lines[1:]:
        s, p = line.split(",")
        out[int(s)] = float(p)
    return out


class TestPmfCommands:
    def test_limit_pmf_poisson(self, capsys):
        code, out, _ = run_cli(capsys, "limit-pmf", "--c", "1.0")
        assert code == 0
        pmf = parse_pmf_csv(out)
        assert pmf[0] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert pmf[1] == pytest.approx(math.exp(-1.0), abs=1e-15)

    @pytest.mark.parametrize("c1", [740, 800])
    def test_limit_pmf_large_mean_matches_poisson(self, capsys, c1):
        # p(0) = exp(-c1) is subnormal (740) or 0.0 (800) in doubles.
        code, out, _ = run_cli(capsys, "limit-pmf", "--c", str(c1))
        assert code == 0
        for s, p in parse_pmf_csv(out).items():
            poisson = math.exp(s * math.log(c1) - c1 - math.lgamma(s + 1))
            assert abs(p - poisson) <= 1e-12

    def test_sample_large_mean(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--c", "800", "--count", "10000")
        assert code == 0
        counts = [int(line) for line in out.split()]
        assert len(counts) == 10000
        std_err = math.sqrt(800.0 / len(counts))
        assert abs(sum(counts) / len(counts) - 800.0) <= 5.0 * std_err

    def test_finite_pmf_exact_small_case(self, capsys):
        code, out, _ = run_cli(capsys, "finite-pmf", "--n", "3", "--c", "1.5,2.25")
        assert code == 0
        pmf = parse_pmf_csv(out)
        assert pmf[0] == pytest.approx(0.5, abs=1e-12)
        assert pmf[1] == pytest.approx(0.0, abs=1e-12)
        assert pmf[2] == pytest.approx(0.0, abs=1e-12)
        assert pmf[3] == pytest.approx(0.5, abs=1e-12)

    def test_oracle_pmf_mixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-pmf", "--n", "3", "--mixture", "0:0.5,1:0.5"
        )
        assert code == 0
        assert parse_pmf_csv(out) == {0: 0.5, 1: 0.0, 2: 0.0, 3: 0.5}

    def test_oracle_pmf_past_the_double_range_of_binomials(self, capsys):
        # C(2000, m) overflows a double and 0.7^2000 underflows one
        code, out, _ = run_cli(capsys, "oracle-pmf", "--n", "2000", "--mixture", "0.3:1")
        assert code == 0
        pmf = parse_pmf_csv(out)
        assert sorted(pmf) == list(range(2001))
        log_p, log_q = math.log(0.3), math.log1p(-0.3)
        for s, p in pmf.items():
            log_comb = math.lgamma(2001) - math.lgamma(s + 1) - math.lgamma(2001 - s)
            assert abs(p - math.exp(log_comb + s * log_p + (2000 - s) * log_q)) <= 1e-10

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "limit-pmf", "--c", "1.0", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"p", "tail_bound", "admissible"}
        assert data["admissible"] is True

    def test_inadmissible_model_prints_pmf_then_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "limit-pmf", "--c", "0.1,-5")
        assert code == 2
        pmf = parse_pmf_csv(out)  # signed values still printed
        assert min(pmf.values()) < -1e-9
        assert "inadmissible" in err

    def test_model_file(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"l_max": 1, "c": [1.0], "n": 2}))
        code, out, _ = run_cli(capsys, "finite-pmf", "--model", str(path))
        assert code == 0
        assert parse_pmf_csv(out) == {0: 0.25, 1: 0.5, 2: 0.25}

    @pytest.mark.parametrize(
        "n, c",
        [
            ("10000", "2.0,0.5,0.1"),
            # support near 3000: each step's product has 12 x 3000 entries
            ("5000", "1500.0,100.0,5.0"),
        ],
    )
    def test_finite_pmf_bytes_do_not_depend_on_blas_threads(self, n, c):
        cmd = [sys.executable, "-m", "corrcount", "finite-pmf", "--n", n, "--c", c]
        outputs = []
        for threads in ("1", "2"):
            env = subprocess_env()
            env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run(cmd, capture_output=True, check=True, env=env)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


class TestCf:
    def test_single_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "cf", "--c", "1.0", "--u", "3.14159265:3.14159265:1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,re,im"
        u, re, im = (float(x) for x in lines[1].split(","))
        assert u == pytest.approx(3.14159265)
        assert re == pytest.approx(math.exp(-2.0), abs=1e-8)
        assert abs(im) < 1e-8

    def test_grid_is_inclusive(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "--c", "2.0,0.5", "--u", "0:6.2832:64")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 64
        assert float(rows[0].split(",")[0]) == 0.0
        assert float(rows[-1].split(",")[0]) == pytest.approx(6.2832)

    @pytest.mark.parametrize(
        "start, stop, count",
        [
            (0.0, 6.283185307179586, 100000),
            (0.0, 6.2832, 16),
            (0.5, 2.0, 1),
            (-0.0, 1.0, 1),
            (1.0, -3.0, 1),
            (0.3, 0.7, 2),
            (0.3, 0.7, 3),
            (-0.0, 1.0, 3),
            (1.0, -0.0, 3),
            (0.0, -0.0, 3),
            (1.25, 1.25, 5),
            (3.0, -3.0, 7),
            (-5.0, 7.0, 333),
            (0.0, 5e-324, 7),  # the step underflows to 0
            (1e-310, 2e-310, 1001),
            (-8e307, 8e307, 9),
            (1e308, -7e307, 4),
            (0.0, 1.7e308, 1001),
        ],
    )
    def test_grid_points_are_those_of_linspace(self, start, stop, count):
        got = _parse_ugrid(f"{start!r}:{stop!r}:{count}")
        want = np.linspace(start, stop, count).tolist()
        assert list(map(repr, got)) == list(map(repr, want))


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--c", "2", "--count", "100000"],
            ["cf", "--c", "2", "--u", "0:1:100000"],
        ],
    )
    def test_reader_leaving_after_one_line_exit_1_quietly(self, argv):
        # The output is several pipe buffers long, so writes are still
        # pending when the reader closes its end.
        with subprocess.Popen(
            [sys.executable, "-m", "corrcount", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(),
        ) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read().decode()
        assert (code, err) == (1, "")


def buffered_env(**extra):
    """subprocess_env() and ``extra`` without PYTHONUNBUFFERED: stdout is buffered, as users run it."""
    env = {**subprocess_env(), **extra}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def spawn(*argv, **env):
    """Run ``python -m corrcount argv``; (exit code, stdout, stderr) as text."""
    done = subprocess.run(
        [sys.executable, "-m", "corrcount", *argv], capture_output=True, text=True,
        env=buffered_env(**env), timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


# python -c RUN_WITH_ATEXIT WATCH ARGV...: register an atexit handler that
# prints "teardown" on stderr, then run corrcount.cli.run on ARGV.  WATCH
# "trace" sets a tracer first, "monitor" stands in a registered
# sys.monitoring tool, and "none" does neither.
RUN_WITH_ATEXIT = """
import atexit, sys, types
atexit.register(print, "teardown", file=sys.stderr)
watch = sys.argv.pop(1)
if watch == "trace":
    sys.settrace(lambda *a: None)
elif watch == "monitor":
    sys.monitoring = types.SimpleNamespace(get_tool=lambda i: "profiler" if i == 2 else None)
from corrcount.cli import run
run()
"""


class TestProcessExit:
    """Every way out of ``python -m corrcount``: the code and both streams are those of main."""

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["limit-pmf", "--c", "2"], 0, ""),
            (
                ["finite-pmf", "--n", "5", "--c", "1,40"], 2,
                "inadmissible model: p(1) = -125.03040000000003 below tolerance\n",
            ),
            (
                ["limit-pmf", "--c", "x"], 3,
                "error: bad coefficient list 'x': could not convert string to float: 'x'\n",
            ),
        ],
        ids=["ok", "inadmissible", "bad-input"],
    )
    def test_exit_code_and_streams_are_those_of_main(self, capsys, argv, code, err):
        in_process = run_cli(capsys, *argv)
        assert in_process[0] == code
        assert in_process[2] == err
        assert spawn(*argv) == in_process

    def test_help_is_the_recorded_screen(self):
        screen = (HELP / "corrcount.txt").read_text(encoding="utf-8")
        assert spawn("--help", COLUMNS="80") == (0, screen, "")

    @pytest.mark.parametrize(
        "entry, err",
        [(["-m", "corrcount"], b""), (["-c", RUN_WITH_ATEXIT, "trace"], b"teardown\n")],
        ids=["os-exit", "traced"],
    )
    def test_help_to_a_closed_pipe_exits_1_quietly(self, entry, err):
        # the screen sits in the stdout buffer until the last flush; traced,
        # the flush at interpreter exit must not raise again
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "wb") as closed:
            done = subprocess.run(
                [sys.executable, *entry, "--help"], stdout=closed,
                stderr=subprocess.PIPE, env=buffered_env(), timeout=120,
            )
        assert (done.returncode, done.stderr) == (1, err)

    def test_piped_output_is_flushed_whole(self, tmp_path):
        # 10^6 lines, several pipe buffers: all of them are out before os._exit
        argv = [sys.executable, "-m", "corrcount", "sample", "--c", "2", "--count", "1000000"]
        path = tmp_path / "counts.txt"
        with path.open("wb") as fh:
            to_file = subprocess.run(argv, stdout=fh, env=buffered_env(), timeout=120)
        piped = subprocess.run(argv, capture_output=True, env=buffered_env(), timeout=120)
        assert (to_file.returncode, piped.returncode, piped.stderr) == (0, 0, b"")
        assert piped.stdout.count(b"\n") == 1_000_000
        digest = hashlib.sha256(piped.stdout).hexdigest()
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_profiler_writes_its_results(self, tmp_path):
        done = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", "prof.out", "-m", "corrcount",
             "limit-pmf", "--c", "2"],
            capture_output=True, text=True, env=buffered_env(), cwd=tmp_path, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("s,p\n0,0.1353352832366127\n")
        assert pstats.Stats(str(tmp_path / "prof.out")).total_calls > 0

    @pytest.mark.parametrize(
        "watch, teardown", [("none", ""), ("trace", "teardown\n"), ("monitor", "teardown\n")]
    )
    def test_teardown_runs_only_under_a_tracer(self, watch, teardown):
        done = subprocess.run(
            [sys.executable, "-c", RUN_WITH_ATEXIT, watch, "finite-pmf", "--n", "5", "--c", "1,40"],
            capture_output=True, text=True, env=buffered_env(), timeout=120,
        )
        assert done.returncode == 2
        assert done.stdout.startswith("s,p\n0,")
        assert done.stderr == (
            "inadmissible model: p(1) = -125.03040000000003 below tolerance\n" + teardown
        )

    def test_one_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        module, _, function = pyproject["project"]["scripts"]["corrcount"].partition(":")
        assert (module, function) == ("corrcount.cli", "run")
        tree = ast.parse((ROOT / "src" / "corrcount" / "__main__.py").read_text(encoding="utf-8"))
        imported = {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and node.module == "cli" and node.level == 1 for alias in node.names
        }
        called = {
            node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert imported == called == {function}


class TestSampleAndEstimate:
    def test_sample_deterministic(self, capsys):
        code, first, _ = run_cli(
            capsys, "sample", "--c", "2.0", "--count", "1000", "--seed", "42"
        )
        assert code == 0
        code, second, _ = run_cli(
            capsys, "sample", "--c", "2.0", "--count", "1000", "--seed", "42"
        )
        assert code == 0
        assert first == second
        assert len(first.strip().splitlines()) == 1000

    def test_sample_lines_are_the_counts_formatted_by_str(self, capsys):
        from corrcount import limit_pmf, sample_counts
        from corrcount.core import CorrelationModel

        code, out, _ = run_cli(
            capsys, "sample", "--c", "12", "--count", "70000", "--seed", "5"
        )
        assert code == 0
        pmf = limit_pmf(CorrelationModel([12.0]), mass_tolerance=1e-12)
        counts = sample_counts(pmf, 70000, 5).tolist()
        assert min(counts) < 10 <= max(counts)
        assert out == "".join(str(k) + "\n" for k in counts)

    def test_sample_inadmissible_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--c", "0.1,-5", "--count", "10", "--seed", "1"
        )
        assert code == 2
        assert "negative" in err

    def test_estimate_newline_input(self, capsys, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("\n".join(["3"] * 150) + "\n")
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(path), "--lmax", "1", "--seed", "7"
        )
        assert code == 0
        data = json.loads(out)
        assert data["c_hat"] == [3.0]
        assert data["n_samples"] == 150

    def test_report_json_schema(self, capsys, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("2\n" * 150)
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(path), "--lmax", "1", "--bootstrap", "5"
        )
        assert code == 0
        data = json.loads(out)
        assert out == json.dumps(data, sort_keys=True) + "\n"
        assert set(data) == {"c_hat", "std_err", "n_samples", "n_bootstrap"}
        assert data["n_samples"] == 150
        assert len(data["c_hat"]) == len(data["std_err"]) == 1

    def test_estimate_csv_input_autodetected(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        rows = ["sample_index,count"] + [f"{i},2" for i in range(120)]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(path), "--lmax", "1", "--seed", "7"
        )
        assert code == 0
        assert json.loads(out)["c_hat"] == [2.0]

    def test_estimate_headerless_csv_input(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("\n".join(f"{i},4" for i in range(120)) + "\n")
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(path), "--lmax", "1", "--seed", "7"
        )
        assert code == 0
        assert json.loads(out)["c_hat"] == [4.0]

    @pytest.mark.parametrize(
        "text, counts",
        [
            ("-1,5\n0,3\n", [5, 3]),
            ("0.0,3\n1,4\n", [3, 4]),
            ("sample_index,count\n0,3\n1,4\n", [3, 4]),
            ("index,count\n-1,5\n0,3\n", [5, 3]),
        ],
    )
    def test_csv_header_only_when_first_field_is_not_a_number(
        self, tmp_path, text, counts
    ):
        path = tmp_path / "counts.csv"
        path.write_text(text)
        assert np.concatenate(list(_read_counts(str(path)))).tolist() == counts

    def test_estimate_keeps_first_row_with_signed_index(self, capsys, tmp_path):
        counts = [7] + [i % 5 for i in range(149)]
        plain = tmp_path / "counts.txt"
        plain.write_text("\n".join(map(str, counts)) + "\n")
        signed = tmp_path / "counts.csv"
        signed.write_text(
            "\n".join(f"{i - 1},{c}" for i, c in enumerate(counts)) + "\n"
        )
        outs = []
        for path in (plain, signed):
            code, out, _ = run_cli(
                capsys, "estimate", "--input", str(path), "--lmax", "1", "--seed", "7"
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[1])["n_samples"] == 150

    @pytest.mark.parametrize(
        "rows, cause",
        [
            pytest.param(
                ["sample_index,count", "0,2", "1,x", "2,2"], "bad counts file", id="rows0"
            ),
            pytest.param(["0,2", "1", "2,2"], "bad counts file", id="rows1"),
            pytest.param(["2", "2,5", "2"], "bad counts file", id="rows2"),
            pytest.param(["2", "two", "2"], "bad counts file", id="rows3"),
            pytest.param([], "is empty", id="empty"),
            pytest.param(["", "  ", ""], "is empty", id="blank-only"),
            pytest.param(
                ["sample_index,count"],
                "has a header but no count rows",
                id="header-only",
            ),
        ],
    )
    def test_estimate_malformed_row_exit_3(self, capsys, tmp_path, rows, cause):
        path = tmp_path / "counts.txt"
        path.write_text("".join(row + "\n" for row in rows))
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(path), "--lmax", "1"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert cause in err

    @pytest.mark.parametrize(
        "text", ["sample_index,count", "\n\nsample_index,count\n \n"],
        ids=["without-newline", "between-blank-lines"],
    )
    def test_estimate_names_a_header_without_rows(self, capsys, tmp_path, text):
        path = tmp_path / "counts.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--lmax", "1")
        assert (code, out) == (3, "")
        assert err == f"error: counts file {path} has a header but no count rows\n"

    def test_estimate_pipeline_recovers_coefficients(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "sample", "--c", "2.0,0.5", "--count", "20000", "--seed", "9"
        )
        assert code == 0
        path = tmp_path / "counts.txt"
        path.write_text(out)
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(path), "--lmax", "2", "--seed", "9"
        )
        assert code == 0
        data = json.loads(out)
        for got, want, se in zip(data["c_hat"], (2.0, 0.5), data["std_err"]):
            assert abs(got - want) < 4 * se

    @pytest.mark.parametrize("csv", [False, True], ids=["plain", "csv"])
    def test_estimate_reads_a_pipe_as_it_reads_a_file(self, tmp_path, csv):
        # a pipe can be read only once, so a reader that opens it twice loses rows
        counts = [(i * i) % 7 for i in range(100003)]
        rows = [f"{i},{k}" for i, k in enumerate(counts)] if csv else map(str, counts)
        text = ("sample_index,count\n" if csv else "") + "".join(r + "\n" for r in rows)
        path = tmp_path / "counts.txt"
        path.write_text(text)
        argv = [sys.executable, "-m", "corrcount", "estimate", "--lmax", "2", "--input"]
        env = subprocess_env()
        from_file = subprocess.run(
            [*argv, str(path)], capture_output=True, text=True, env=env, timeout=120
        )
        from_pipe = subprocess.run(
            [*argv, "/dev/stdin"], input=text, capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert (from_pipe.returncode, from_pipe.stderr) == (0, "")
        assert from_pipe.stdout == from_file.stdout
        assert json.loads(from_pipe.stdout)["n_samples"] == len(counts)

    def test_estimate_counts_every_piped_row(self):
        proc = subprocess.run(
            [sys.executable, "-m", "corrcount", "estimate", "--lmax", "1", "--input",
             "/dev/stdin"],
            input="1\n2\n", capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: order 1 needs at least 10 samples, got 2\n"


# Runs ``python -m corrcount ARGV...`` with stdout to OUT and prints its exit
# code and peak RSS in KiB.  A child's peak starts at the RSS of the process
# that spawns it, so the jobs are spawned from this small interpreter, not
# from the test process.
SPAWN_AND_MEASURE = """
import os, subprocess, sys
with open(sys.argv[1], "wb") as out:
    proc = subprocess.Popen([sys.executable, "-m", "corrcount", *sys.argv[2:]], stdout=out)
    _, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


class TestMemory:
    """sample and estimate hold one block of counts, not all of them."""

    MODEL = ("--c", "2.0,0.5")

    @staticmethod
    def traced_peak(argv, stdout_path) -> int:
        with open(stdout_path, "w") as out, contextlib.redirect_stdout(out):
            assert main(argv) == 0  # lazy numpy set-up is not the job's
            out.seek(0)
            out.truncate()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def support_bytes(self) -> int:
        from corrcount import limit_pmf
        from corrcount.core import CorrelationModel

        return 256 * len(limit_pmf(CorrelationModel([2.0, 0.5])).values)

    def test_sample_peak_is_one_block(self, tmp_path):
        argv = ["sample", *self.MODEL, "--count", str(10 ** 6), "--seed", "3"]
        peak = self.traced_peak(argv, tmp_path / "counts.txt")
        assert (tmp_path / "counts.txt").stat().st_size > 10 ** 6
        assert peak <= 2 * 2 ** 20 + self.support_bytes()

    def test_estimate_peak_is_one_block(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("".join(f"{(i * i) % 7}\n" for i in range(10 ** 6)))
        argv = ["estimate", "--input", str(path), "--lmax", "2", "--seed", "3"]
        peak = self.traced_peak(argv, tmp_path / "report.json")
        assert json.loads((tmp_path / "report.json").read_text())["n_samples"] == 10 ** 6
        assert peak <= 2 * 2 ** 20 + self.support_bytes()

    def test_peak_rss_does_not_grow_with_the_count(self, tmp_path):
        peaks = {}
        for count in (2 * 10 ** 5, 2 * 10 ** 6):
            counts = tmp_path / f"counts-{count}.txt"
            jobs = {
                "sample": ["sample", *self.MODEL, "--count", str(count), "--seed", "5"],
                "estimate": ["estimate", "--input", str(counts), "--lmax", "2", "--seed", "5"],
            }
            for job, argv in jobs.items():
                out = counts if job == "sample" else tmp_path / f"report-{count}.json"
                result = subprocess.run(
                    [sys.executable, "-c", SPAWN_AND_MEASURE, str(out), *argv],
                    capture_output=True, text=True, env=subprocess_env(), check=True,
                )
                code, kib = map(int, result.stdout.split())
                assert code == 0, (job, count)
                peaks[job, count] = kib
        for job in ("sample", "estimate"):
            assert peaks[job, 2 * 10 ** 6] <= peaks[job, 2 * 10 ** 5] + 2048, peaks


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "5", "--trials", "6", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 7
        assert all(line.startswith("PASS") for line in lines)

    def test_n_above_ceiling_exit_3_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--n", "21", "--trials", "3")
        assert time.perf_counter() - start < 5.0
        assert code == 3
        assert out == ""
        assert err == "error: verify supports joint sizes 2 <= n <= 20, got 21\n"

    def test_n_12_passes_quickly(self, capsys):
        # The iid check runs on exact tables, so n^k cannot magnify rounding.
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "--n", "12", "--trials", "1")
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert "PASS iid-correlation-free: max |err| = 0.000e+00" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--trials", "0"], "trials >= 1, got 0"),
            (["--trials", "-1"], "trials >= 1, got -1"),
            (["--n", "1"], "2 <= n <= 20, got 1"),
            (["--n", "0"], "2 <= n <= 20, got 0"),
            (["--n", "-3"], "2 <= n <= 20, got -3"),
        ],
    )
    def test_vacuous_run_exit_3_at_once(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert message in err


class TestWarnings:
    @pytest.mark.parametrize(
        "argv",
        [["limit-pmf", "--c", "1,0"], ["finite-pmf", "--n", "5", "--c", "1,0"]],
    )
    def test_trailing_zero_is_one_line(self, argv):
        # In a subprocess: the warning reaches stderr as a user would see it.
        done = subprocess.run(
            [sys.executable, "-m", "corrcount", *argv],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert done.returncode == 0
        assert done.stdout.startswith("s,p\n")
        assert done.stderr == (
            "warning: C_2 = 0: model is correlated to an order below its "
            "declared l_max\n"
        )

    NOTICE = "warning: C_2 = 0: model is correlated to an order below its declared l_max\n"

    @pytest.mark.parametrize("route", ["model-file", "config-model"])
    def test_trailing_zero_of_a_model_object_is_one_line(self, tmp_path, route):
        model = {"l_max": 2, "c": [1, 0]}
        path = tmp_path / "job.json"
        if route == "model-file":
            path.write_text(json.dumps(model))
            argv = ["limit-pmf", "--model", str(path)]
        else:
            path.write_text(json.dumps({"command": "limit-pmf", "model": model}))
            argv = ["--config", str(path)]
        done = subprocess.run(
            [sys.executable, "-m", "corrcount", *argv],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert (done.returncode, done.stderr) == (0, self.NOTICE)
        assert done.stdout.startswith("s,p\n")

    @pytest.mark.parametrize(
        "flags, filters",
        [([], "error"), ([], "ignore"), (["-W", "error"], None), (["-W", "ignore"], None)],
        ids=["env-error", "env-ignore", "W-error", "W-ignore"],
    )
    def test_trailing_zero_is_not_a_python_warning(self, flags, filters):
        # the notice is CLI output: a warning filter neither hides it nor raises it
        env = subprocess_env()
        env.pop("PYTHONWARNINGS", None)
        if filters is not None:
            env["PYTHONWARNINGS"] = filters
        done = subprocess.run(
            [sys.executable, *flags, "-m", "corrcount", "finite-pmf", "--n", "5", "--c", "1,0"],
            capture_output=True, text=True, env=env,
        )
        assert (done.returncode, done.stderr) == (0, self.NOTICE)
        assert done.stdout.startswith("s,p\n")

    def test_trailing_zero_comes_before_the_inadmissible_line(self):
        done = subprocess.run(
            [sys.executable, "-m", "corrcount", "finite-pmf", "--n", "30", "--c", "1,40,0"],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert done.returncode == 2
        assert done.stdout.startswith("s,p\n")
        notice, inadmissible, end = done.stderr.split("\n")
        assert notice + "\n" == self.NOTICE.replace("C_2", "C_3")
        assert inadmissible.startswith("inadmissible model: p(9) = ")
        assert inadmissible.endswith(" below tolerance")
        assert end == ""


class TestBadInput:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "no-such-command")
        assert code == 3

    def test_missing_model(self, capsys):
        code, _, err = run_cli(capsys, "limit-pmf")
        assert code == 3
        assert "model" in err

    def test_bad_coefficient_list(self, capsys):
        code, _, _ = run_cli(capsys, "limit-pmf", "--c", "1.0,abc")
        assert code == 3

    def test_bad_mixture(self, capsys):
        code, _, _ = run_cli(capsys, "oracle-pmf", "--n", "3", "--mixture", "0.5")
        assert code == 3

    def test_bad_grid(self, capsys):
        code, _, _ = run_cli(capsys, "cf", "--c", "1.0", "--u", "0-1-2")
        assert code == 3

    @pytest.mark.parametrize("grid", ["0:nan:3", "0:inf:3", "-1.7e308:1.7e308:3"])
    def test_non_finite_grid_exit_3(self, grid):
        # In a subprocess, so that a numpy RuntimeWarning would reach stderr.
        done = subprocess.run(
            [sys.executable, "-m", "corrcount", "cf", "--c", "2", f"--u={grid}"],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert done.returncode == 3
        assert done.stdout == ""
        assert "must be finite" in done.stderr
        assert "RuntimeWarning" not in done.stderr

    def test_oracle_joint_above_ceiling(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle-pmf", "--n", "100001", "--mixture", "0.3:1"
        )
        assert code == 3
        assert out == ""
        assert "ceiling 100000" in err

    @pytest.mark.parametrize(
        "argv, cause",
        [
            pytest.param(
                ["limit-pmf", "--c", "1,0,0,1e5"],
                "p(0) = exp(q_0) overflows",
                id="1,0,0,1e5-overflows",
            ),
            pytest.param(
                ["limit-pmf", "--c", "1e308,-1e308"],
                "q_1 = inf is not finite",
                id="limit-q1-inf",
            ),
            pytest.param(
                ["sample", "--c", "1e308,-1e308", "--count", "3"],
                "q_1 = inf is not finite",
                id="sample-q1-inf",
            ),
            pytest.param(
                ["cf", "--c", "1e308,-1e308", "--u", "0:3:3"],
                "q_1 = inf is not finite",
                id="cf-q1-inf",
            ),
            # every q_t is finite, but the Cauchy bound's sums overflow
            pytest.param(
                ["limit-pmf", "--c", "1e307,1e307,1e307"],
                "cap of 1000000 entries: the mean plus ten standard "
                "deviations is 1.000e+307",
                id="tail-sum-overflows",
            ),
            # C_1 + C_2 overflows in the starting support
            pytest.param(
                ["limit-pmf", "--c", "1e308,1e308"],
                "cap of 1000000 entries: the mean plus ten standard "
                "deviations is inf",
                id="start-overflows",
            ),
            # the Cauchy bound's sums cancel to 0
            pytest.param(
                ["limit-pmf", "--c", "1e30"],
                "cap of 1000000 entries: the mean plus ten standard "
                "deviations is 1.000e+30",
                id="start-past-cap",
            ),
            pytest.param(
                ["limit-pmf", "--c", ",".join(["0.1"] * 171)],
                "order l = 171: l! = 171! overflows a double",
                id="limit-order-171",
            ),
            pytest.param(
                ["cf", "--c", ",".join(["0.1"] * 171), "--u", "0:3:3"],
                "order l = 171: l! = 171! overflows a double",
                id="cf-order-171",
            ),
        ],
    )
    def test_limit_p0_out_of_double_range_exit_3(self, capsys, argv, cause):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert cause in err

    @pytest.mark.parametrize(
        "argv, cause",
        [
            pytest.param(
                ["--n", "100", "--c", "1e20"], "p_N(0) = inf is not finite", id="1e20"
            ),
            pytest.param(
                ["--n", "100", "--c", "1.0,1e40"],
                "p_N(0) = inf is not finite",
                id="1.0,1e40",
            ),
            pytest.param(
                ["--n", "100000", "--c", ",".join(["0.1"] * 62)],
                "order l = 62 at N = 100000: N^l overflows a double",
                id="n-power-62",
            ),
            # the event-count ceiling comes before N^l is formed
            pytest.param(
                ["--n", "10000000", "--c", ",".join(["0.1"] * 45)],
                "N = 10000000 exceeds the supported ceiling 100000",
                id="n-ceiling-45",
            ),
        ],
    )
    def test_finite_overflow_exit_3(self, capsys, argv, cause):
        code, out, err = run_cli(capsys, "finite-pmf", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {cause}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["cf", "--c=-1000", "--u=0:3:3"],
            ["cf", "--c", "2,400", "--u", "0:3:3", "--format", "json"],
            # Q(e^iu) = inf - inf j at u = 3: cmath.exp raises ValueError
            ["cf", "--c", "1,1.5e308", "--u", "0:3:3"],
        ],
    )
    def test_cf_overflow_exit_3(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the test
            code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""  # no inf rows, no Infinity in JSON
        assert err.startswith("error: chi(u[")
        assert "is not finite" in err

    # Each file holds 200,000 counts, read in many blocks, with its fault
    # past the first 131,072 rows.  The stderr was recorded from the CLI
    # when np.loadtxt parsed the whole file in one call, with a conversion
    # error's row, which loadtxt counts from 0, counted from 1.
    LATE_FAULTS = {
        "bad-token": (
            True, {150001: "150000,4x"},
            "bad counts file {path}: could not convert string '4x' to int64 "
            "at row 150001, column 2.",
        ),
        "negative": (False, {140000: "-3"}, "negative count -3 in input"),
        "above-ceiling": (
            False, {150000: "1000001"}, "count 1000001 exceeds the supported ceiling 1000000"
        ),
        "two-negatives": (False, {10: "-2", 140000: "-7"}, "negative count -7 in input"),
        "two-columns": (
            False, {100000: "3,4"},
            "bad counts file {path}: the number of columns changed from 1 to 2 "
            "at row 100001; use `usecols` to select a subset and avoid this error",
        ),
        "two-columns-to-the-end": (
            False, dict.fromkeys(range(90000, 200000), "4,4"),
            "bad counts file {path}: the number of columns changed from 1 to 2 "
            "at row 90001; use `usecols` to select a subset and avoid this error",
        ),
        "missing-column": (
            True, {120000: "7"},
            "bad counts file {path}: invalid column index 1 at row 120000 with 1 columns",
        ),
        "blank-line-then-bad-token": (
            False, {99999: "", 100001: "x"},
            "bad counts file {path}: could not convert string 'x' to int64 "
            "at row 100001, column 1.",
        ),
    }

    @pytest.mark.parametrize("name", sorted(LATE_FAULTS))
    def test_estimate_refuses_a_late_fault_as_one_pass_did(self, capsys, tmp_path, name):
        csv, changes, message = self.LATE_FAULTS[name]
        rows = [f"{i},{i % 5}" if csv else str(i % 5) for i in range(200000)]
        if csv:
            rows.insert(0, "sample_index,count")
        for index, row in changes.items():
            rows[index] = row
        path = tmp_path / "counts.txt"
        path.write_text("".join(row + "\n" for row in rows))
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(path), "--lmax", "2", "--bootstrap", "5"
        )
        assert (code, out) == (3, "")
        assert err == "error: " + message.format(path=path) + "\n"

    @pytest.mark.parametrize(
        "csv, rows_read",
        [(False, 147456), (True, 147056)],
        ids=["plain", "csv"],
    )
    def test_estimate_names_a_late_byte_that_is_not_utf8_by_row(
        self, capsys, tmp_path, csv, rows_read
    ):
        # The decoder's "position" counts within one read, not the file, so
        # the refusal bounds the byte by the count rows of the reads before
        # it, of 32,768 characters each: 9 reads of 16,384 plain rows.  A CSV
        # header is read with the rows, in the first read.
        rows = [f"{i},{i % 7}" if csv else str(i % 7) for i in range(150000)]
        head = "sample_index,count\n" if csv else ""
        path = tmp_path / "counts.txt"
        path.write_bytes((head + "".join(r + "\n" for r in rows)).encode() + b"\xff\n3\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--lmax", "1")
        assert (code, out) == (3, "")
        assert err == (
            f"error: bad counts file {path}: byte 0xff past the first {rows_read} count rows "
            "is not UTF-8\n"
        )

    def test_estimate_names_an_early_byte_that_is_not_utf8_by_row(self, capsys, tmp_path):
        # it lies in the first read, so no count row has been read before it
        path = tmp_path / "counts.txt"
        path.write_bytes(b"1\n2\n\xff\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--lmax", "1")
        assert (code, out) == (3, "")
        assert err == (
            f"error: bad counts file {path}: byte 0xff past the first 0 count rows "
            "is not UTF-8\n"
        )

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("x\n", "could not convert string 'x' to int64 at row 1, column 1."),
            ("3\nx\n", "could not convert string 'x' to int64 at row 2, column 1."),
            (
                "sample_index,count\n0,3\n1,x\n",
                "could not convert string 'x' to int64 at row 2, column 2.",
            ),
            ("3\n\nx\n", "could not convert string 'x' to int64 at row 2, column 1."),
            ("3\n  \n4\n", "could not convert string '  ' to int64 at row 2, column 1."),
            (
                "3\n4,5\n",
                "the number of columns changed from 1 to 2 at row 2; use `usecols` to "
                "select a subset and avoid this error",
            ),
        ],
        ids=["first", "second", "csv", "after-empty-line", "spaces", "two-columns"],
    )
    def test_estimate_names_a_bad_row_from_1(self, capsys, tmp_path, text, fault):
        # every row named counts the nonempty lines after the header from 1
        path = tmp_path / "counts.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--lmax", "1")
        assert (code, out) == (3, "")
        assert err == f"error: bad counts file {path}: {fault}\n"

    @pytest.mark.parametrize(
        "argv, want_code",
        [
            (["--c", "2", "--count", "100000", "--seed", "-1"], 3),
            (["--c", "0.1,-5", "--count", "100000", "--seed", "1"], 2),
            (["--c", "2", "--count", "10000001"], 3),
        ],
        ids=["seed", "inadmissible", "count-above-ceiling"],
    )
    def test_sample_refusal_writes_no_count(self, capsys, argv, want_code):
        code, out, err = run_cli(capsys, "sample", *argv)
        assert (code, out) == (want_code, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_estimate_count_above_ceiling_exit_3(self, capsys, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("\n".join(["3"] * 150 + [str(10 ** 12)]) + "\n")
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(path), "--lmax", "1"
        )
        assert code == 3
        assert out == ""
        assert "count 1000000000000 exceeds the supported ceiling 1000000" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--c", "2", "--count", "10000000000000"],
            ["cf", "--c", "2", "--u", "0:1:10000000000000"],
        ],
    )
    def test_points_above_ceiling_exit_3(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "1..10000000, got 10000000000000" in err

    def test_limit_drift_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "limit-pmf", "--c", "1.0,40.0")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "mass drifts from 1 by 1.410e+17" in err

    @pytest.mark.parametrize("command", ["sample", "estimate", "verify"])
    def test_negative_seed_exit_3(self, capsys, tmp_path, command):
        path = tmp_path / "counts.txt"
        path.write_text("1\n" * 20)
        flags = {
            "sample": ["--c", "2.0", "--count", "10"],
            "estimate": ["--input", str(path), "--lmax", "1"],
            "verify": [],
        }[command]
        code, out, err = run_cli(capsys, command, *flags, "--seed", "-1")
        assert code == 3
        assert out == ""
        assert "seed must be a non-negative integer, got -1" in err

    def test_n_below_l_max(self, capsys):
        code, _, _ = run_cli(capsys, "finite-pmf", "--n", "1", "--c", "1.0,0.5")
        assert code == 3

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "cf", "--c", "1.0")
        assert code == 3

    def test_bad_model_file_contents(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"l_max": 1, "c": ["not-a-number"]}))
        code, _, _ = run_cli(capsys, "limit-pmf", "--model", str(path))
        assert code == 3

    @pytest.mark.parametrize("flag", ["--model", "--config"])
    @pytest.mark.parametrize(
        "model, cause",
        [
            ({"l_max": 2, "c": "12"}, "'c' must be an array of numbers, got '12'"),
            ({"l_max": 2, "c": [True, 0.5]}, "'c' must be an array of numbers, got [True"),
            ({"l_max": 2, "c": ["1", "0.5"]}, "'c' must be an array of numbers, got ['1'"),
            ({"l_max": 1, "c": 5}, "'c' must be an array of numbers, got 5"),
            ({"l_max": 3, "c": [1.0, 0.5]}, "expected 3 coefficients, got 2"),
            ({"l_max": 1, "c": [10 ** 400]}, "too large to convert to float"),
        ],
        ids=["c-string", "c-bool", "c-strings", "c-number", "l_max-mismatch", "c-huge-int"],
    )
    def test_model_json_is_refused_not_reinterpreted(self, capsys, tmp_path, flag, model, cause):
        # a string is iterable, a bool is an int and float() parses a
        # string, so each could pass for some other coefficient vector
        path = tmp_path / "job.json"
        job = {"command": "limit-pmf", "model": model} if flag == "--config" else model
        path.write_text(json.dumps(job))
        argv = [flag, str(path)] if flag == "--config" else ["limit-pmf", flag, str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert cause in err

    @pytest.mark.parametrize(
        "model, field",
        [
            ({"l_max": 1, "c": [1.0], "n": True}, "n"),
            ({"l_max": True, "c": [1.0]}, "l_max"),
        ],
        ids=["n", "l_max"],
    )
    def test_json_bool_is_not_an_integer_field(self, capsys, tmp_path, model, field):
        # json reads true as a bool, which Python counts as the int 1
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        command = "finite-pmf" if "n" in model else "limit-pmf"
        code, out, err = run_cli(capsys, command, "--model", str(path))
        assert code == 3
        assert out == ""
        assert f"{field} must be a positive integer, got True" in err

    @pytest.mark.parametrize("flag", ["--model", "--config"])
    @pytest.mark.parametrize(
        "data", [b'{"l_max": 1,', b'\xff\xfe{"l_max": 1}'], ids=["not-json", "not-utf8"]
    )
    def test_unreadable_json_file_exit_3(self, capsys, tmp_path, flag, data):
        path = tmp_path / "job.json"
        path.write_bytes(data)
        argv = [flag, str(path)] if flag == "--config" else ["limit-pmf", flag, str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: cannot read {flag[2:]} ")

    @pytest.mark.parametrize("route", ["flag", "model-file", "config"])
    @pytest.mark.parametrize("command", ["limit-pmf", "cf"])
    def test_limit_law_refuses_an_event_count(self, capsys, tmp_path, command, route):
        model = {"l_max": 1, "c": [2.0], "n": 10}
        grid = {"cf": ["--u", "0:1:2"]}.get(command, [])
        if route == "flag":
            argv = [command, "--c", "2", "--n", "10", *grid]
        elif route == "model-file":
            path = tmp_path / "model.json"
            path.write_text(json.dumps(model))
            argv = [command, "--model", str(path), *grid]
        else:
            config = {"command": command, "model": model, "u": grid[1] if grid else None}
            path = tmp_path / "job.json"
            path.write_text(json.dumps(config))
            argv = ["--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "takes no event count, got n = 10: use finite-pmf" in err

    @pytest.mark.parametrize(
        "argv, n",
        [
            (["limit-pmf", "--c", "nan", "--n", "5"], 5),
            (["limit-pmf", "--c", "1,2,3", "--n", "2"], 2),
            (["cf", "--c", "1,0", "--n", "4", "--u", "0:1:2"], 4),
        ],
        ids=["non-finite-c", "n-below-l_max", "trailing-zero"],
    )
    def test_limit_law_refuses_an_event_count_before_the_model(self, capsys, argv, n):
        # the count is refused ahead of the model's own faults and warning
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == (
            f"error: {argv[0]} computes the N -> infinity law and takes no event "
            f"count, got n = {n}: use finite-pmf for a finite N\n"
        )

    @pytest.mark.parametrize(
        "job, cause",
        [
            (
                {"command": "limit-pmf", "model": {"l_max": 1, "c": [2.0]}, "c": "5"},
                "--model and --c both set the coefficients: pass one of them",
            ),
            (
                {"command": "finite-pmf", "model": {"l_max": 1, "c": [2.0], "n": 10}, "n": 20},
                "--model and --n both set the event count: pass one of them",
            ),
        ],
        ids=["c", "n"],
    )
    def test_config_setting_one_flag_twice_exit_3(self, capsys, tmp_path, job, cause):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, out, err = run_cli(capsys, "--config", str(path))
        assert code == 3
        assert out == ""
        assert cause in err

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("n", [50, 100])
    def test_model_file_and_n_both_setting_the_event_count_exit_3(
        self, capsys, tmp_path, route, n
    ):
        # the rule of a config's model object, even when the two counts agree
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"l_max": 1, "c": [2.0], "n": 50}))
        if route == "flag":
            argv = ["finite-pmf", "--model", str(path), "--n", str(n)]
        else:
            job = tmp_path / "job.json"
            job.write_text(json.dumps({"command": "finite-pmf", "model": str(path), "n": n}))
            argv = ["--config", str(job)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: --model and --n both set the event count: pass one of them\n"

    @pytest.mark.parametrize("text", ["[1, 2]", '"m"', "3", "null"])
    def test_model_file_that_is_not_an_object_exit_3(self, capsys, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "limit-pmf", "--model", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: model file {path} must hold a JSON object\n"

    @pytest.mark.parametrize(
        "argv, file, message",
        [
            (
                ["estimate", "--input", "{file}", "--lmax", "1"], None,
                "cannot read counts file {file}: [Errno 2] No such file or directory: '{file}'",
            ),
            (["finite-pmf", "--c", "1"], None, "this command requires an event count: pass --n"),
            (
                ["oracle-pmf", "--mixture", "0.5:1"], None,
                "the following arguments are required: --n",
            ),
            (
                ["--config", "{file}"], {"command": "oracle-pmf", "mixture": "0.5:1"},
                "the following arguments are required: --n",
            ),
            ([], None, "a subcommand or --config is required"),
            (
                ["--config", "{file}"], {"command": "limit-pmf", "c": "1", "colour": "red"},
                "unknown config key 'colour'",
            ),
            (
                ["--config", "{file}"], {"command": "verify", "model": {"l_max": 1, "c": [1.0]}},
                "verify takes no model",
            ),
            (
                ["--config", "{file}"], {"command": "--config=x"},
                "config did not name a subcommand",
            ),
            (
                ["limit-pmf", "--model", "{file}"], {"c": [1.0]},
                "model JSON needs 'l_max' and 'c': 'l_max'",
            ),
            (
                ["limit-pmf", "--c", ""], None,
                "bad coefficient list '': could not convert string to float: ''",
            ),
            (
                ["limit-pmf", "--model", ""], None,
                "cannot read model file : [Errno 2] No such file or directory: ''",
            ),
            (
                ["--config", "{file}"], {"command": "limit-pmf", "c": ""},
                "bad coefficient list '': could not convert string to float: ''",
            ),
            (
                ["--config", "{file}"], {"command": "limit-pmf", "model": ""},
                "cannot read model file : [Errno 2] No such file or directory: ''",
            ),
            (
                ["--config", ""], None,
                "cannot read config : [Errno 2] No such file or directory: ''",
            ),
            (
                ["--config", "", "limit-pmf", "--c", "2"], None,
                "pass either a subcommand or --config, not both",
            ),
            (
                ["sample", "--c", "2", "--count", "3", "--format", "json"], None,
                "unrecognized arguments: --format json",
            ),
            (["limit-pmf", "--c", "2", "--x"], None, "unrecognized arguments: --x"),
        ],
        ids=[
            "missing-counts-file", "finite-pmf-without-n", "oracle-pmf-without-n",
            "config-oracle-pmf-without-n",
            "no-command", "unknown-config-key", "verify-model", "config-command-is-a-flag",
            "model-without-l_max", "empty-c", "empty-model", "config-empty-c",
            "config-empty-model", "empty-config", "empty-config-and-command",
            "sample-format", "unknown-flag",
        ],
    )
    def test_refusal_names_its_cause(self, capsys, tmp_path, argv, file, message):
        path = tmp_path / "job.json"
        if file is not None:
            path.write_text(json.dumps(file))
        code, out, err = run_cli(capsys, *(arg.format(file=path) for arg in argv))
        assert (code, out) == (3, "")
        assert err == "error: " + message.format(file=path) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["limit-pmf", "--c", "-1,0.5"],
            ["cf", "--c", "2", "--u", "-1:1:3"],
            ["cf", "--c", "2", "--u", "-.5:1:3"],
            ["limit-pmf", "--c", "-1", "--n", "-2"],
        ],
        ids=["c", "u", "u-point", "n"],
    )
    def test_negative_value_is_a_value(self, capsys, argv):
        # "--flag value" gives what "--flag=value" gives, whatever the exit code
        joined = argv[:1] + [f"{f}={v}" for f, v in zip(argv[1::2], argv[2::2])]
        assert run_cli(capsys, *argv) == run_cli(capsys, *joined)

    @pytest.mark.parametrize("model_first", [True, False], ids=["model-c", "c-model"])
    def test_model_and_c_flags_both_given_exit_3(self, capsys, tmp_path, model_first):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"l_max": 1, "c": [2.0]}))
        flags = [["--model", str(path)], ["--c", "5"]]
        if not model_first:
            flags.reverse()
        code, out, err = run_cli(capsys, "limit-pmf", *flags[0], *flags[1])
        assert (code, out) == (3, "")
        assert err == "error: --model and --c both set the coefficients: pass one of them\n"

    def test_config_and_subcommand_conflict(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"command": "limit-pmf", "c": "1.0"}))
        code, _, err = run_cli(capsys, "--config", str(path), "limit-pmf", "--c", "1.0")
        assert code == 3
        assert "not both" in err


class TestHelp:
    @pytest.mark.parametrize(
        "command",
        [
            "corrcount", "limit-pmf", "finite-pmf", "oracle-pmf", "cf", "sample", "estimate",
            "verify",
        ],
    )
    def test_help_is_the_recorded_screen(self, capsys, monkeypatch, command):
        # each screen is pinned in tests/help, as argparse prints it at 80
        # columns, so that the flag tables are shown to build the same parser
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main(["--help"] if command == "corrcount" else [command, "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr() == ((HELP / f"{command}.txt").read_text(encoding="utf-8"), "")

    def test_parser_builds_without_docstrings(self):
        # python -OO sets the module docstring, the top-level help text, to None
        proc = subprocess.run(
            [sys.executable, "-OO", "-m", "corrcount", "limit-pmf", "--c", "2"],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("s,p\n0,0.1353352832366127\n")


class TestConfigFile:
    def test_job_from_config(self, capsys, tmp_path):
        config = {
            "command": "limit-pmf",
            "model": {"l_max": 1, "c": [1.0], "n": None},
            "output_format": "csv",
            "mass_tolerance": 1e-12,
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "--config", str(path))
        assert code == 0
        pmf = parse_pmf_csv(out)
        assert pmf[0] == pytest.approx(math.exp(-1.0), abs=1e-15)

    @pytest.mark.parametrize(
        "config, argv",
        [
            (
                {"c": "1,-3", "output_format": "json", "mass_tolerance": 1e-10},
                ["limit-pmf", "--c", "1,-3", "--format", "json", "--tol", "1e-10"],
            ),
            (
                {"model": "{model}", "n": 20, "output_format": "csv"},
                ["finite-pmf", "--model", "{model}", "--n", "20", "--format", "csv"],
            ),
            (
                {"n": 6, "mixture": "0.2:0.5,0.8:0.5", "output_format": "json"},
                ["oracle-pmf", "--n", "6", "--mixture", "0.2:0.5,0.8:0.5", "--format", "json"],
            ),
            (
                # a value that starts with "-" is a value, as --u=... makes it
                {"c": "2,0.5", "u": "-1:1:5", "output_format": "json"},
                ["cf", "--c", "2,0.5", "--u=-1:1:5", "--format", "json"],
            ),
            (
                {"model": {"l_max": 1, "c": [2.0], "n": None}, "seed": 42, "count": 500},
                ["sample", "--c", "2.0", "--count", "500", "--seed", "42"],
            ),
            (
                {"c": "2", "n": 30, "count": 200, "mass_tolerance": 1},
                ["sample", "--c", "2", "--n", "30", "--count", "200", "--tol", "1"],
            ),
            (
                {"input": "{counts}", "lmax": 2, "n_bootstrap": 20, "seed": 5},
                [
                    "estimate", "--input", "{counts}", "--lmax", "2", "--bootstrap", "20",
                    "--seed", "5",
                ],
            ),
            (
                {"n": 4, "trials": 2, "seed": 3},
                ["verify", "--n", "4", "--trials", "2", "--seed", "3"],
            ),
        ],
        ids=[
            "limit-pmf", "finite-pmf", "oracle-pmf", "cf", "sample", "sample-n", "estimate",
            "verify",
        ],
    )
    def test_config_matches_flags(self, capsys, tmp_path, config, argv):
        # every config key, each giving what its flag gives: exit code,
        # stdout and stderr (limit-pmf's model is inadmissible, so exit 2)
        files = {"model": tmp_path / "m.json", "counts": tmp_path / "counts.txt"}
        files["model"].write_text(json.dumps({"l_max": 2, "c": [1.0, 0.3]}))
        files["counts"].write_text("".join(f"{k % 5}\n" for k in range(300)))
        config = {k: v.format(**files) if isinstance(v, str) else v for k, v in config.items()}
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"command": argv[0], **config}))
        from_config = run_cli(capsys, "--config", str(path))
        from_flags = run_cli(capsys, *(arg.format(**files) for arg in argv))
        assert from_config == from_flags
        assert from_config[0] == (2 if argv[0] == "limit-pmf" else 0)

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {"command": "limit-pmf", "c": [2.0, 0.5]},
                "config key 'c' must be a JSON string, got [2.0, 0.5]",
            ),
            (
                {"command": "finite-pmf", "c": "2", "n": 10.0},
                "config key 'n' must be a JSON integer, got 10.0",
            ),
            (
                {"command": "limit-pmf", "c": "2", "mass_tolerance": True},
                "config key 'mass_tolerance' must be a JSON number, got True",
            ),
            (
                {"command": "limit-pmf", "model": [1, 2]},
                "config key 'model' must be a JSON string or object, got [1, 2]",
            ),
            ({"command": None}, "config did not name a subcommand"),
            ({"command": "-h"}, "config did not name a subcommand"),
            (
                {"command": "sample", "c": "2", "count": True},
                "config key 'count' must be a JSON integer, got True",
            ),
            (
                {"command": "sample", "c": "2", "count": "5"},
                "config key 'count' must be a JSON integer, got '5'",
            ),
            (
                {"command": "sample", "c": "2", "count": 5, "seed": 1.0},
                "config key 'seed' must be a JSON integer, got 1.0",
            ),
            (
                {"command": "cf", "c": "2", "u": "0:1:2", "mass_tolerance": 1e-12},
                "cf takes no mass_tolerance",
            ),
            (
                {"command": "sample", "c": "2", "count": 3, "output_format": "json"},
                "sample takes no output_format",
            ),
        ],
        ids=[
            "c-array", "n-float", "tol-bool", "model-array", "command-null", "command-help",
            "count-bool", "count-string", "seed-float", "cf-tol", "sample-format",
        ],
    )
    def test_config_refusal_names_its_key(self, capsys, tmp_path, config, message):
        # each is checked against its flag's JSON type before argparse reads it
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "--config", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n"

    def test_negative_seed_in_config_exit_3(self, capsys, tmp_path):
        config = {"command": "sample", "c": "2.0", "count": 10, "seed": -5}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "--config", str(path))
        assert code == 3
        assert out == ""
        assert "seed must be a non-negative integer, got -5" in err

    def test_bad_config(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("{}")
        code, _, _ = run_cli(capsys, "--config", str(path))
        assert code == 3
