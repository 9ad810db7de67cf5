"""Cross-module identity suite over random mixtures and random models.

Backs the ``verify`` CLI command.  Every check is deterministic in the
seed and reports its worst observed deviation against the tolerance it
ships with, so a regression anywhere in the expansion/counting chain shows
up as a named FAIL line rather than a silent drift.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import (
    CorrelationModel,
    OutOfRangeError,
    Record,
    SymmetricTable,
    correlation_coefficient,
    is_int_in,
    validate_seed,
)
from .finite import count_pmf_from_joint, finite_count_pmf
from .limit import char_fn, limit_pmf
from .montecarlo import MixtureSpec, build_mixture_joint
from .ursell import (
    _correlation_orders,
    _exponential_formula,
    _recursive_orders,
    marginalize,
    probability_from_correlations,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IdentityCheck",
    "run_identity_suite",
    "random_mixture_spec",
    "random_joint",
    "random_model",
    "random_admissible_model",
    "measure_coefficients",
]

# The largest joint verify builds: at n = 20 the default 50 trials take
# about 0.5 s in process on 2 vCPUs, against 0.35 s at n = 6.
VERIFY_MAX_N = 20


class IdentityCheck(Record):
    """One identity's worst deviation; it has ``passed`` when worst <= tolerance."""

    _fields = ("name", "tolerance", "worst", "passed", "detail")

    def __init__(self, name: str, tolerance: float, worst: float, detail: str = ""):
        super().__init__(name, tolerance, worst, bool(worst <= tolerance), detail)


def random_mixture_spec(rng: np.random.Generator) -> MixtureSpec:
    n_atoms = int(rng.integers(1, 4))
    ps = rng.uniform(0.0, 1.0, size=n_atoms)
    ws = rng.uniform(0.1, 1.0, size=n_atoms)
    ws = ws / ws.sum()
    # nudge the last weight so the atom weights sum to one exactly
    ws[-1] = 1.0 - math.fsum(ws[:-1])
    return MixtureSpec(tuple(zip(ps.tolist(), ws.tolist())))


def random_joint(rng: np.random.Generator, n_max: int = 6):
    n = int(rng.integers(2, n_max + 1))
    return build_mixture_joint(random_mixture_spec(rng), n)


def random_model(rng: np.random.Generator, n: int | None = None) -> CorrelationModel:
    """Arbitrary real coefficients in [-5, 5], l_max <= 4; not always admissible."""
    l_max = int(rng.integers(1, 5))
    c = rng.uniform(-5.0, 5.0, size=l_max)
    if c[-1] == 0.0:
        c[-1] = 2.5
    return CorrelationModel(c.tolist(), n)


def random_admissible_model(rng: np.random.Generator) -> CorrelationModel:
    """Rejection-sample (500 tries) an l_max <= 4 vector with admissible limit pmf."""
    for _ in range(500):
        l_max = int(rng.integers(1, 5))
        c = [float(rng.uniform(0.5, 4.0))]
        for l in range(2, l_max + 1):
            c.append(float(rng.uniform(-0.6, 0.9)) / math.factorial(l - 1))
        if c[-1] == 0.0:
            c[-1] = 0.1
        model = CorrelationModel(c)
        if limit_pmf(model, mass_tolerance=1e-12).admissible:
            return model
    raise RuntimeError("no admissible model found in 500 tries")


def measure_coefficients(joint) -> tuple[float, ...]:
    """Coefficients C_1..C_n of a joint of n events, measured through the expansion chain."""
    p_tables = [marginalize(joint, k) for k in range(1, joint.n + 1)]
    g_tables = _correlation_orders(p_tables)
    return tuple(correlation_coefficient(g, joint.n) for g in g_tables)


def run_identity_suite(n: int = 6, trials: int = 50, seed: int = 1) -> list[IdentityCheck]:
    """Run every cross-module identity; deterministic in the seed.

    Raises:
        OutOfRangeError: n outside 2..VERIFY_MAX_N, trials below 1, or a
            negative seed; refused before any work.
    """
    import numpy as np

    if not is_int_in(n, 2, VERIFY_MAX_N):
        raise OutOfRangeError(
            f"verify supports joint sizes 2 <= n <= {VERIFY_MAX_N}, got {n!r}"
        )
    if not is_int_in(trials, 1):
        raise OutOfRangeError(f"verify needs trials >= 1, got {trials!r}")
    validate_seed(seed)
    rng = np.random.default_rng(seed)
    joints = [random_joint(rng, n_max=n) for _ in range(trials)]
    checks: list[IdentityCheck] = []

    # Correlation tables: recursion vs exponential formula, symmetry, sign flip,
    # and the round trip back to probability tables.
    worst_eq = worst_sym = worst_flip = worst_round = 0.0
    for joint in joints:
        # the literal recursion grows as (k-1)!: orders up to 6 only
        p_tables = [marginalize(joint, k) for k in range(1, min(joint.n, 6) + 1)]
        g_tables = _correlation_orders(p_tables)
        for k, rec in enumerate(_recursive_orders(p_tables)[1:], start=2):
            # entry b has r_i = (b >> i) & 1: the canonical entry of its
            # class puts all ones first, and rec[1::2], rec[0::2] differ in r_1
            ones = sum((np.arange(2 ** k) >> i) & 1 for i in range(k))
            canonical = rec[(1 << ones) - 1]
            compressed = rec[(1 << np.arange(k + 1)) - 1]
            sizes = [math.comb(k, m) for m in range(k + 1)]  # patterns per class
            part = np.asarray(g_tables[k - 1].values) / sizes
            worst_eq = max(worst_eq, float(np.max(np.abs(compressed - part))))
            worst_sym = max(worst_sym, float(np.max(np.abs(rec - canonical))))
            worst_flip = max(worst_flip, float(np.max(np.abs(rec[1::2] + rec[0::2]))))
        rebuilt = probability_from_correlations(g_tables)
        worst_round = max(
            worst_round,
            max(abs(a - b) for a, b in zip(rebuilt.values, p_tables[-1].mass)),
        )
    checks.append(IdentityCheck("g-recursive-vs-partition", 1e-12, worst_eq))
    checks.append(IdentityCheck("g-permutation-symmetry", 1e-12, worst_sym))
    checks.append(IdentityCheck("g-flip-antisymmetry", 1e-12, worst_flip))
    checks.append(IdentityCheck("p-g-roundtrip", 1e-12, worst_round))

    # iid joints carry no genuine correlation at any order >= 2.  The
    # masses C(k, m) p^m (1-p)^(k-m) of a dyadic p run through the log in
    # exact fractions, so any residue here is a logic error, not rounding.
    from fractions import Fraction

    worst_iid = 0.0
    for _ in range(max(3, trials // 10)):
        p = Fraction(int(rng.integers(4, 61)), 64)
        p_values = [
            [math.comb(k, m) * p**m * (1 - p) ** (k - m) for m in range(k + 1)]
            for k in range(1, n + 1)
        ]
        for g in _exponential_formula(p_values, log=True)[1:]:
            coeff = correlation_coefficient(SymmetricTable(g), n)
            worst_iid = max(worst_iid, abs(coeff))
    checks.append(IdentityCheck("iid-correlation-free", 1e-10, worst_iid))

    # Measuring every coefficient of a joint and rerunning the counting
    # machinery at full order must reproduce the joint's own count pmf.
    worst_oracle = 0.0
    for joint in joints:
        if joint.n > 7:
            continue
        coeffs = measure_coefficients(joint)
        rebuilt = finite_count_pmf(CorrelationModel(coeffs, n=joint.n))
        direct = count_pmf_from_joint(joint)
        worst_oracle = max(
            worst_oracle,
            max(abs(a - b) for a, b in zip(rebuilt.values, direct.values)),
        )
    checks.append(IdentityCheck("oracle-vs-finite-pmf", 1e-10, worst_oracle))

    # Normalization and mean hold for arbitrary real coefficients.  Far
    # outside admissibility the true entries oscillate at huge amplitude,
    # so each model's budget is the larger of the strict tolerance and its
    # own cancellation estimate scaled by the recurrence depth; the checks
    # report the worst error-to-budget ratio.
    worst_norm = worst_mean = 0.0
    raw_norm = raw_mean = 0.0
    n_inadmissible = 0
    lowest = 0.0
    for i in range(trials):
        model = random_model(rng, n=(10, 100, 1000)[i % 3])
        pmf = finite_count_pmf(model)
        if not pmf.admissible:
            n_inadmissible += 1
            lowest = min(lowest, pmf.most_negative()[1])
        e_norm = abs(pmf.total_mass() - 1.0)
        e_mean = abs(pmf.mean() - model.coefficient(1))
        raw_norm = max(raw_norm, e_norm)
        raw_mean = max(raw_mean, e_mean)
        worst_norm = max(worst_norm, e_norm / max(1e-9, model.n * pmf.error_estimate))
        worst_mean = max(
            worst_mean, e_mean / max(1e-8, 10.0 * model.n * pmf.error_estimate)
        )
    checks.append(
        IdentityCheck(
            "finite-pmf-normalization",
            1.0,
            worst_norm,
            detail=f"error vs max(1e-9, N*err_est); raw worst {raw_norm:.3e}; "
            f"{n_inadmissible}/{trials} models inadmissible, "
            f"most negative entry {lowest:.3e}",
        )
    )
    checks.append(
        IdentityCheck(
            "finite-pmf-mean-identity",
            1.0,
            worst_mean,
            detail=f"error vs max(1e-8, 10*N*err_est); raw worst {raw_mean:.3e}",
        )
    )

    # First-order models reduce to the Poisson law.
    worst_poisson = 0.0
    for lam in (0.5, 1.0, 2.0, 4.0):
        pmf = limit_pmf(CorrelationModel([lam]))
        for s in range(min(41, len(pmf.values))):
            expected = math.exp(-lam) * lam ** s / math.factorial(s)
            worst_poisson = max(worst_poisson, abs(pmf.values[s] - expected))
    checks.append(IdentityCheck("poisson-reduction", 1e-12, worst_poisson))

    # Fourier sum of the pmf matches the closed-form characteristic function.
    worst_cf = 0.0
    for _ in range(min(trials, 20)):
        model = random_admissible_model(rng)
        pmf = limit_pmf(model, mass_tolerance=1e-12)
        grid = np.linspace(0.0, 2.0 * math.pi, 32)
        cf = char_fn(model, grid)
        s = np.arange(len(pmf.values))
        p = np.asarray(pmf.values)
        for u, chi in zip(cf.u, cf.chi):
            series = complex(np.sum(p * np.exp(1j * u * s)))
            worst_cf = max(worst_cf, abs(series - chi))
    checks.append(IdentityCheck("cf-pmf-duality", 1e-8, worst_cf))

    return checks
