"""Workloads of the corrcount benchmark: seeded job lists and output checks.

A workload is an ordered list of CLI jobs.  Everything a job passes to the
program (coefficients, ``--seed`` values, file names) is derived from the
workload seed, so the same seed gives the same argv.  Coefficients are
jittered by at most ``JITTER`` (relative); the jitter never moves a job
across a regime boundary (admissible/inadmissible, under/over the limit
law's underflow point), so the job's expected outcome and the amount of
work do not depend on the seed.

Every job carries an independent check of its output.  The references are
closed forms evaluated here with ``math.lgamma`` and ``cmath`` (Binomial,
Poisson, Bernoulli mixtures, the Poisson characteristic function), or
identities every count law satisfies (mass 1, mean C_1).  This module
imports nothing from the package under test.
"""

import cmath
import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

JITTER = 0.02
# Absolute tolerance against lgamma/cmath closed forms.  The references
# themselves carry a relative error of about lgamma(N) * eps (~1e-11 at
# N = 10^4), so this is the tightest bound that does not test the reference.
REF_TOL = 1e-10
MASS_TOL = 1e-10
# Signed (inadmissible) vectors lose digits to cancellation; the README
# still promises mass 1 and mean C_1 for them.
SIGNED_TOL = 1e-8
CF_SERIES_TOL = 1e-8
# Entries of an admissible pmf may round to tiny negatives, never more.
NEG_TOL = 1e-12
# Estimates and sample means must lie within this many standard errors.
Z_MAX = 5.0

SAMPLE_COUNT = 1_000_000
CF_POINTS = 100_000
DEFAULT_BOOTSTRAP = 200
TWO_PI = "6.283185307179586"

# Exit codes after which the CLI has printed a result (0 ok, 2 inadmissible
# but printed, 4 identity failure).  Any other code is an error exit.
RESULT_EXITS = frozenset({0, 2, 4})

Check = Callable[[str, str, dict[str, str]], "str | None"]


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``corrcount <argv>``.

    ``check(stdout, stderr, outputs)`` returns None when the output is
    right and a reason otherwise; ``outputs`` maps the names of the jobs
    already run in the pass to their stdout.
    """

    name: str
    argv: tuple[str, ...]
    expect_exit: int
    check: Check


def classify(job: Job, code: int, out: str, err: str, outputs: dict[str, str]):
    """(outcome, reason): outcome is "ok", "error" or "wrong".

    "error" means the program stopped without a result where one was due
    (exit 1 or 3, a signal, a timeout); "wrong" means it returned a result
    that fails the check or claims the wrong status.  Both count as failed
    jobs; only "wrong" makes the run incorrect.
    """
    if code == job.expect_exit:
        try:
            reason = job.check(out, err, outputs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unparseable output: {type(exc).__name__}: {exc}"
        return ("ok", "") if reason is None else ("wrong", reason)
    if code in RESULT_EXITS:
        return "wrong", f"exit {code}, expected {job.expect_exit}"
    tail = err.strip().splitlines()[-1:] or [""]
    return "error", f"exit {code}, expected {job.expect_exit}: {tail[0][:160]}"


# --- parsing -------------------------------------------------------------


def parse_pmf(out: str) -> tuple[list[float], bool | None]:
    """pmf values and the admissible flag (None for CSV, which has none)."""
    text = out.strip()
    if text.startswith("{"):
        payload = json.loads(text)
        return [float(x) for x in payload["p"]], bool(payload["admissible"])
    lines = text.splitlines()
    if lines[0] != "s,p":
        raise ValueError(f"bad pmf header {lines[0]!r}")
    values = []
    for s, line in enumerate(lines[1:]):
        s_text, p_text = line.split(",")
        if int(s_text) != s:
            raise ValueError(f"row {s} labelled {s_text}")
        values.append(float(p_text))
    return values, None


def parse_cf(out: str) -> list[tuple[float, complex]]:
    text = out.strip()
    if text.startswith("{"):
        payload = json.loads(text)
        return [
            (float(u), complex(re, im))
            for u, re, im in zip(payload["u"], payload["re"], payload["im"], strict=True)
        ]
    lines = text.splitlines()
    if lines[0] != "u,re,im":
        raise ValueError(f"bad cf header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        u, re, im = (float(x) for x in line.split(","))
        rows.append((u, complex(re, im)))
    return rows


# --- references ----------------------------------------------------------


def log_binom_pmf(n: int, q: float, s: int) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(s + 1)
        - math.lgamma(n - s + 1)
        + s * math.log(q)
        + (n - s) * math.log1p(-q)
    )


def poisson_pmf(lam: float, s: int) -> float:
    return math.exp(s * math.log(lam) - lam - math.lgamma(s + 1))


def mixture_pmf(n: int, atoms, s: int) -> float:
    return math.fsum(w * math.exp(log_binom_pmf(n, p, s)) for p, w in atoms)


def max_gap(values, reference: Callable[[int], float]) -> float:
    return max(abs(v - reference(s)) for s, v in enumerate(values))


# --- checks --------------------------------------------------------------


def _pmf_identities(values, c1: float, tol: float) -> str | None:
    if not all(math.isfinite(v) for v in values):
        return "non-finite pmf entry"
    mass = math.fsum(values)
    if abs(mass - 1.0) > tol:
        return f"mass {mass!r} differs from 1 by more than {tol:g}"
    mean = math.fsum(s * v for s, v in enumerate(values))
    if abs(mean - c1) > tol * max(1.0, c1):
        return f"mean {mean!r} differs from C_1 = {c1!r}"
    return None


def admissible_pmf(
    c1: float,
    length: int | None = None,
    reference: Callable[[int], float] | None = None,
) -> Check:
    """Admissible count pmf: entries >= 0, mass 1, mean C_1, optional reference."""

    def check(out, err, outputs):
        values, flag = parse_pmf(out)
        if flag is False:
            return "flagged inadmissible"
        if length is not None and len(values) != length:
            return f"{len(values)} entries, expected {length}"
        if min(values) < -NEG_TOL:
            return f"negative entry {min(values)!r}"
        reason = _pmf_identities(values, c1, MASS_TOL)
        if reason is None and reference is not None:
            gap = max_gap(values, reference)
            if gap > REF_TOL:
                reason = f"max |p - reference| = {gap:.3e} > {REF_TOL:g}"
        return reason

    return check


def signed_pmf(c1: float, length: int) -> Check:
    """Inadmissible vector: the signed pmf is printed and stderr names it."""

    def check(out, err, outputs):
        if "inadmissible" not in err:
            return "stderr does not report the inadmissible entry"
        values, _ = parse_pmf(out)
        if len(values) != length:
            return f"{len(values)} entries, expected {length}"
        if min(values) >= 0.0:
            return "no negative entry in an inadmissible pmf"
        return _pmf_identities(values, c1, SIGNED_TOL)

    return check


def cf_matches_pmf(pmf_job: str, stride: int) -> Check:
    """chi(0) = 1, and chi(u) equals the Fourier sum of another job's pmf."""

    def check(out, err, outputs):
        rows = parse_cf(out)
        if len(rows) != CF_POINTS:
            return f"{len(rows)} grid points, expected {CF_POINTS}"
        u0, chi0 = rows[0]
        if u0 != 0.0 or abs(chi0 - 1.0) > 1e-12:
            return f"chi({u0!r}) = {chi0!r}, expected 1 at u = 0"
        if pmf_job not in outputs:
            return f"reference job {pmf_job} gave no pmf"
        values, _ = parse_pmf(outputs[pmf_job])
        worst = 0.0
        for u, chi in rows[::stride]:
            series = math.fsum(p * math.cos(u * s) for s, p in enumerate(values))
            series_im = math.fsum(p * math.sin(u * s) for s, p in enumerate(values))
            worst = max(worst, abs(complex(series, series_im) - chi))
        if worst > CF_SERIES_TOL:
            return f"max |chi - Fourier sum of pmf| = {worst:.3e}"
        return None

    return check


def poisson_cf(lam: float, points: int) -> Check:
    def check(out, err, outputs):
        rows = parse_cf(out)
        if len(rows) != points:
            return f"{len(rows)} grid points, expected {points}"
        worst = max(abs(chi - cmath.exp(lam * (cmath.exp(1j * u) - 1.0))) for u, chi in rows)
        if worst > REF_TOL:
            return f"max |chi - Poisson cf| = {worst:.3e}"
        return None

    return check


def counts_sample(c1: float, c2: float, count: int) -> Check:
    """count lines of nonnegative integers whose mean is C_1 within Z_MAX SE."""
    sd = math.sqrt(c1 + c2)
    ceiling = c1 + 50.0 * sd + 50.0

    def check(out, err, outputs):
        values = [int(tok) for tok in out.split()]
        if len(values) != count:
            return f"{len(values)} samples, expected {count}"
        if min(values) < 0 or max(values) > ceiling:
            return f"sample outside the support: {min(values)}..{max(values)}"
        mean = math.fsum(values) / count
        if abs(mean - c1) > Z_MAX * sd / math.sqrt(count):
            return f"sample mean {mean!r} too far from C_1 = {c1!r}"
        return None

    return check


def estimate_report(truth: tuple[float, ...], count: int) -> Check:
    def check(out, err, outputs):
        report = json.loads(out)
        if report["n_samples"] != count or report["n_bootstrap"] != DEFAULT_BOOTSTRAP:
            return f"n_samples/n_bootstrap = {report['n_samples']}/{report['n_bootstrap']}"
        c_hat, std_err = report["c_hat"], report["std_err"]
        if len(c_hat) != len(truth) or len(std_err) != len(truth):
            return f"{len(c_hat)} estimates, expected {len(truth)}"
        for l, (c, est, se) in enumerate(zip(truth, c_hat, std_err), start=1):
            if not (math.isfinite(se) and se > 0.0):
                return f"std_err of C_{l} is {se!r}"
            if abs(est - c) > Z_MAX * se:
                return f"C_{l}: estimate {est!r} vs truth {c!r}, std_err {se!r}"
        return None

    return check


def all_pass(out, err, outputs):
    lines = out.strip().splitlines()
    if not lines:
        return "no identity lines"
    failing = [line for line in lines if not line.startswith("PASS ")]
    return f"{len(failing)} identities not PASS: {failing[0][:120]}" if failing else None


# --- workloads -----------------------------------------------------------


class _Jitter:
    def __init__(self, workload: str, seed: int):
        self._rng = random.Random(f"{workload}:{seed}")

    def coeffs(self, *base: float) -> tuple[str, tuple[float, ...]]:
        """Jittered coefficients as the CLI string and the exact floats."""
        text = [repr(round(c * (1.0 + JITTER * self._rng.uniform(-1.0, 1.0)), 6)) for c in base]
        return ",".join(text), tuple(float(t) for t in text)

    def seed(self) -> str:
        return str(self._rng.randrange(2**31))


def finite_ladder(seed: int, workdir: Path) -> list[Job]:
    """finite-pmf at growing N: the O(N^2 l_max) recurrence dominates."""
    jit = _Jitter("finite-ladder", seed)
    jobs = []
    for n, fmt in ((1000, "csv"), (3000, "json"), (10_000, "csv")):
        text, c = jit.coeffs(2.0, 0.5, 0.1)
        jobs.append(
            Job(
                f"finite-l3-n{n}",
                ("finite-pmf", "--n", str(n), "--c", text, "--format", fmt),
                0,
                admissible_pmf(c[0], length=n + 1),
            )
        )
    n = 10_000
    text, (c1,) = jit.coeffs(3.0)
    jobs.append(
        Job(
            f"finite-binomial-n{n}",
            ("finite-pmf", "--n", str(n), "--c", text),
            0,
            admissible_pmf(
                c1,
                length=n + 1,
                reference=lambda s, n=n, q=c1 / n: math.exp(log_binom_pmf(n, q, s)),
            ),
        )
    )
    n = 3000
    text, c = jit.coeffs(2.0, -3.0, 4.0)
    jobs.append(
        Job(
            f"finite-signed-n{n}",
            ("finite-pmf", "--n", str(n), "--c", text),
            2,
            signed_pmf(c[0], n + 1),
        )
    )
    return jobs


def fit_loop(seed: int, workdir: Path) -> list[Job]:
    """sample 10^6 counts to a file, then estimate C_1, C_2 with the bootstrap."""
    jit = _Jitter("fit-loop", seed)
    text, c = jit.coeffs(5.0, 1.0)
    counts_file = workdir / "sample.out"
    return [
        Job(
            "sample",
            ("sample", "--c", text, "--count", str(SAMPLE_COUNT), "--seed", jit.seed()),
            0,
            counts_sample(c[0], c[1], SAMPLE_COUNT),
        ),
        Job(
            "estimate",
            ("estimate", "--input", str(counts_file), "--lmax", "2", "--seed", jit.seed()),
            0,
            estimate_report(c, SAMPLE_COUNT),
        ),
    ]


def verify_suite(seed: int, workdir: Path) -> list[Job]:
    """The identity suite with its defaults.

    Its own --seed stays at the default: the seed draws the joint sizes,
    and the work grows like (k-1)! k 2^k with them, so a seeded suite
    would vary by about +-20% from seed to seed.
    """
    return [Job("verify", ("verify",), 0, all_pass)]


def limit_cf(seed: int, workdir: Path) -> list[Job]:
    """Short jobs: limiting pmfs over a ladder of means, cf, oracles.

    Every limiting model here has nonnegative Q coefficients q_1..q_lmax
    (a compound Poisson law), so it is admissible at any jitter and the
    right result is exit 0 with a pmf.  The C_1 >= 800 rungs and the
    n = 2000 oracle do not get one today; they stay in as failures.
    """
    jit = _Jitter("limit-cf", seed)
    jobs = []

    def limit_job(name, base, fmt, poisson=False):
        text, c = jit.coeffs(*base)
        reference = (lambda s: poisson_pmf(c[0], s)) if poisson else None
        jobs.append(
            Job(
                name,
                ("limit-pmf", "--c", text, "--format", fmt),
                0,
                admissible_pmf(c[0], reference=reference),
            )
        )
        return text, c

    limit_job("limit-c2", (2.0,), "csv", poisson=True)
    cf_text, _ = limit_job("limit-c12", (12.0, 1.5), "json")
    limit_job("limit-c60", (60.0, 8.0, 0.5), "csv")
    limit_job("limit-c100", (100.0,), "json", poisson=True)
    limit_job("limit-c300", (300.0, 30.0, 2.0, 0.1), "json")
    limit_job("limit-c800", (800.0,), "csv", poisson=True)
    limit_job("limit-c5000", (5000.0, 200.0), "json")
    limit_job("limit-c10000", (10_000.0, 500.0, 10.0, 0.5), "csv")

    jobs.append(
        Job(
            "cf-c12",
            ("cf", "--c", cf_text, "--u", f"0:{TWO_PI}:{CF_POINTS}"),
            0,
            cf_matches_pmf("limit-c12", stride=CF_POINTS // 250),
        )
    )
    text, (lam,) = jit.coeffs(3.0)
    jobs.append(
        Job(
            "cf-poisson",
            ("cf", "--c", text, "--u", f"0:{TWO_PI}:1001", "--format", "json"),
            0,
            poisson_cf(lam, 1001),
        )
    )

    for n, base in ((1000, ((0.2, 0.5), (0.6, 0.5))), (2000, ((0.3, 1.0),))):
        _, ps = jit.coeffs(*(p for p, _ in base))
        atoms = tuple(zip(ps, (w for _, w in base)))
        mixture = ",".join(f"{p!r}:{w!r}" for p, w in atoms)
        jobs.append(
            Job(
                f"oracle-n{n}",
                ("oracle-pmf", "--n", str(n), "--mixture", mixture),
                0,
                admissible_pmf(
                    math.fsum(n * p * w for p, w in atoms),
                    length=n + 1,
                    reference=lambda s, n=n, atoms=atoms: mixture_pmf(n, atoms, s),
                ),
            )
        )

    text, c = jit.coeffs(3.0, 0.6)
    jobs.append(
        Job(
            "finite-n200",
            ("finite-pmf", "--n", "200", "--c", text, "--format", "json"),
            0,
            admissible_pmf(c[0], length=201),
        )
    )
    return jobs


def finite_fit(seed: int, workdir: Path) -> list[Job]:
    """Long numeric jobs: finite-pmf at large N, then sample and estimate."""
    return finite_ladder(seed, workdir) + fit_loop(seed, workdir)


def verify_limit(seed: int, workdir: Path) -> list[Job]:
    """Many short calls: the identity suite, then the limit/cf/oracle jobs."""
    return verify_suite(seed, workdir) + limit_cf(seed, workdir)


# Two workloads of two job lists each rather than one per list: on a
# shared 2-vCPU VM, CPU speed drifts by up to 2x in phases of about a
# minute, so a run must last about that long for its median to be steady,
# and the run budget allows 60-s runs for two workloads only.  finite at
# large N (finite-fit) and at small N (verify-limit) stay apart, so a
# change that trades one for the other shows.
WORKLOADS: dict[str, Callable[[int, Path], list[Job]]] = {
    "finite-fit": finite_fit,
    "verify-limit": verify_limit,
}
