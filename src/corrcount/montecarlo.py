"""Samplers, mixture test joints, and coefficient estimation from counts.

Mixtures of iid Bernoulli sequences are exchangeable by construction, so
they are the canonical generator of test joints.  Count sampling is plain
inverse-CDF driven by a frozen generator: NumPy's PCG64 bit stream seeded
with the user integer, one uniform double per sample, so identical inputs
give identical output sequences.  Coefficient estimation is a plug-in
through empirical factorial moments and the moment-to-cumulant map, with
bootstrap standard errors: each replicate histogram is one multinomial
draw on the observed histogram, from a generator seeded with the first
child of the user seed's SeedSequence, so it never replays the sampler's
PCG64(seed) stream.

Both ends stream: ``sample_blocks`` yields the counts in blocks of 65,536,
and the estimator needs only the histogram of the counts, which it
gathers block by block, so neither holds all the counts at once.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import TYPE_CHECKING

from .core import (
    MAX_POINTS,
    TABLE_TOL,
    BadShapeError,
    ExchangeableJoint,
    InadmissiblePmfError,
    InvalidDistributionError,
    NonFiniteError,
    OutOfRangeError,
    Pmf,
    Record,
    _is_array,
    _numbers,
    is_int_in,
    validate_seed,
)
from .finite import MAX_EVENT_COUNT
from .limit import SUPPORT_CAP, factorial_cumulants

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_BOOTSTRAP",
    "MAX_ESTIMATE_ORDER",
    "MixtureSpec",
    "EstimateReport",
    "build_mixture_joint",
    "sample_blocks",
    "sample_counts",
    "estimate_coefficients",
]

DEFAULT_BOOTSTRAP = 200
# Sampling noise in higher factorial moments explodes past this order.
MAX_ESTIMATE_ORDER = 4
# Uniforms drawn per Generator.random call, and counts per block, in sample_blocks.
_SAMPLE_BLOCK = 65536


class MixtureSpec(Record):
    """Atoms (p, weight) of a finite mixture of iid Bernoulli sequences.

    Raises:
        BadShapeError: no atoms, or ``atoms`` is not an array of pairs of
            numbers (by ``core._numbers``).
        NonFiniteError: an atom's p or weight is NaN, infinite or past the
            double range.
        OutOfRangeError: an atom's p outside [0, 1].
        InvalidDistributionError: a negative weight, or weights whose sum
            is off 1 by more than TABLE_TOL.
    """

    _fields = ("atoms",)

    def __init__(self, atoms):
        if not _is_array(atoms):
            raise BadShapeError(f"'atoms' must be an array of (p, weight) pairs, got {atoms!r}")
        atoms = tuple(_numbers(atom, "atom") for atom in atoms)
        if not atoms:
            raise BadShapeError("mixture needs at least one atom")
        for atom in atoms:
            if len(atom) != 2:
                raise BadShapeError(f"an atom is a pair (p, weight), got {atom!r}")
            p, w = atom
            if not (math.isfinite(p) and math.isfinite(w)):
                raise NonFiniteError(f"non-finite atom ({p!r}, {w!r})")
            if not 0.0 <= p <= 1.0:
                raise OutOfRangeError(f"atom probability {p!r} outside [0, 1]")
            if w < 0.0:
                raise InvalidDistributionError(f"negative atom weight {w!r}")
        total = math.fsum(w for _, w in atoms)
        if abs(total - 1.0) > TABLE_TOL:
            raise InvalidDistributionError(f"atom weights sum to {total!r}, not 1")
        super().__init__(atoms)


class EstimateReport(Record):
    """Plug-in coefficient estimates with bootstrap standard errors."""

    _fields = ("c_hat", "std_err", "n_samples", "n_bootstrap")

    def __init__(
        self,
        c_hat: tuple[float, ...],
        std_err: tuple[float, ...],
        n_samples: int,
        n_bootstrap: int,
    ):
        super().__init__(c_hat, std_err, n_samples, n_bootstrap)


def build_mixture_joint(spec: MixtureSpec, n: int) -> ExchangeableJoint:
    """Exchangeable joint of n events from a Bernoulli mixture.

    mass[m] = sum over atoms of weight * C(n, m) p^m (1-p)^(n-m), summed in
    40-digit decimals, whose exponent range no term leaves, by the walk
    term * p/(1-p) * (n-m)/(m+1) up from weight * (1-p)^n; then each mass
    is correctly rounded to a float by :func:`_round_once`.
    """
    import decimal

    if not is_int_in(n, 1):
        raise BadShapeError(f"event count must be a positive integer, got {n!r}")
    if n > MAX_EVENT_COUNT:
        raise OutOfRangeError(
            f"joint of n = {n} events exceeds the supported ceiling {MAX_EVENT_COUNT}"
        )
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        ctx.Emin = decimal.MIN_EMIN
        mass = [decimal.Decimal(0)] * (n + 1)
        for p, w in spec.atoms:
            if p == 1.0:
                mass[n] += decimal.Decimal(w)
                continue
            p = decimal.Decimal(p)
            odds = p / (1 - p)
            term = decimal.Decimal(w) * (1 - p) ** n
            for m in range(n + 1):
                mass[m] += term
                term = term * odds * (n - m) / (m + 1)
        return ExchangeableJoint(_round_once(spec, n, m, q) for m, q in enumerate(mass))


def _round_once(spec: MixtureSpec, n: int, m: int, q, prec: int = 40) -> float:
    """Mixture mass[m] rounded to a float once, given q, its value to prec digits.

    Either decimal route errs by under 10^6 units in the last digit at
    n <= MAX_EVENT_COUNT, so the mass is within q * 10^(8 - prec) of q.  While that interval
    holds a rounding boundary, the mass is recomputed from its closed form
    at doubled precision, until the computation is exact.
    """
    import decimal

    bound = q.scaleb(8 - prec)
    if float(q - bound) == float(q + bound):
        return float(q)
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * prec
        ctx.clear_flags()
        q = sum(
            decimal.Decimal(w) * (m == n * p) if p in (0.0, 1.0)
            else decimal.Decimal(w) * math.comb(n, m)
            * decimal.Decimal(p) ** m * (1 - decimal.Decimal(p)) ** (n - m)
            for p, w in spec.atoms
        )
        exact = not ctx.flags[decimal.Inexact]
        return float(q) if exact else _round_once(spec, n, m, q, 2 * prec)


def sample_blocks(pmf: Pmf, n_samples: int, seed: int) -> Iterator[np.ndarray]:
    """Draw counts from a pmf by inverse CDF, in blocks; deterministic in (pmf, seed).

    The arguments are checked here, before the first block is drawn; the
    returned iterator then yields int64 blocks of at most 65,536 counts,
    n_samples in all.

    Generator contract, frozen: PCG64 seeded with ``seed``, one uniform
    double per sample via Generator.random, mapped through searchsorted on
    the cumulative masses (entries clipped at zero; the at-most-tail_bound
    sliver of uniforms beyond the last cumulative value lands on s_max).
    Successive Generator.random calls continue one PCG64 stream, so the
    blocks joined equal the counts of a single ``random(n_samples)`` call.
    """
    import numpy as np

    if not is_int_in(n_samples, 1, MAX_POINTS):
        raise OutOfRangeError(
            f"n_samples must be an integer in 1..{MAX_POINTS}, got {n_samples!r}"
        )
    validate_seed(seed)
    if not pmf.admissible:
        s, value = pmf.most_negative()
        raise InadmissiblePmfError(
            f"cannot sample: p({s}) = {value!r} is negative beyond tolerance"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(np.clip(np.asarray(pmf.values), 0.0, None))
    s_max = len(pmf.values) - 1

    def blocks():
        for start in range(0, n_samples, _SAMPLE_BLOCK):
            size = min(_SAMPLE_BLOCK, n_samples - start)
            block = np.searchsorted(cdf, rng.random(size), side="right")
            yield np.minimum(block, s_max, out=block).astype(np.int64, copy=False)

    return blocks()


def sample_counts(pmf: Pmf, n_samples: int, seed: int) -> np.ndarray:
    """The counts of :func:`sample_blocks` joined in one int64 array.

    Memory beyond the returned array stays bounded by one block.
    """
    import numpy as np

    blocks = sample_blocks(pmf, n_samples, seed)
    counts = np.empty(n_samples, dtype=np.int64)
    start = 0
    for block in blocks:
        counts[start : start + block.size] = block
        start += block.size
    return counts


def estimate_coefficients(
    counts,
    l_max: int,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    seed: int = 0,
) -> EstimateReport:
    """Estimate (C_1, ..., C_l_max) from observed counts.

    ``counts`` is a 1-d array-like of counts, or an iterator over such
    blocks, which is read once: the estimate needs only the histogram of
    the counts, so memory is bounded by one block plus the support.  The
    point estimate is the empirical factorial cumulants; standard errors
    come from ``n_bootstrap`` resamples with replacement.  The histogram
    of a resample of all n counts is a Multinomial(n, histogram / n) draw
    (Efron & Tibshirani, 1993), so each replicate costs O(support), not
    O(n).  All replicates come from one generator seeded with the first
    child of np.random.SeedSequence(seed).

    Raises:
        OutOfRangeError: l_max outside 1..MAX_ESTIMATE_ORDER, n_bootstrap < 2,
            a negative seed, counts that are not numbers (bools included),
            a count that is negative, above SUPPORT_CAP or not an integer,
            or fewer than 10^l_max observations.
    """
    import numpy as np

    if not is_int_in(l_max, 1, MAX_ESTIMATE_ORDER):
        raise OutOfRangeError(
            f"estimation order must lie in 1..{MAX_ESTIMATE_ORDER}, got {l_max!r}"
        )
    if not is_int_in(n_bootstrap, 2):
        raise OutOfRangeError(f"n_bootstrap must be >= 2, got {n_bootstrap!r}")
    validate_seed(seed)
    histogram, n_total = _count_histogram(counts if isinstance(counts, Iterator) else [counts])
    floor = 10 ** l_max
    if n_total < floor:
        raise OutOfRangeError(
            f"order {l_max} needs at least {floor} samples, got {n_total}"
        )

    histogram = histogram.astype(float)
    c_hat = factorial_cumulants(histogram, l_max, total=n_total)

    # The histogram of n counts resampled with replacement is one
    # Multinomial(n, histogram / n) draw.
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    pvals = histogram / n_total
    replicates = [
        factorial_cumulants(rng.multinomial(n_total, pvals), l_max, total=n_total)
        for _ in range(n_bootstrap)
    ]
    std_err = tuple(float(x) for x in np.std(replicates, axis=0, ddof=1))

    return EstimateReport(
        c_hat=c_hat,
        std_err=std_err,
        n_samples=n_total,
        n_bootstrap=n_bootstrap,
    )


def _count_histogram(blocks) -> tuple[np.ndarray, int]:
    """The int64 histogram of the counts in an iterable of 1-d blocks, and their number.

    A block that is not 1-d, or not of integers or floats, is refused at
    once.  The value checks use the running minimum and maximum, so they
    are made, in this order, once every block is read: the first refusal
    names the smallest count, then the largest, as a check of all counts
    at once would.  Blocks after a refused value are checked but not
    counted, and a float block is cast only once it holds integers.
    """
    import numpy as np

    histogram = np.zeros(0, dtype=np.int64)
    n_total = 0
    low = high = None
    integral = True
    for block in blocks:
        raw = np.asarray(block)
        if raw.ndim != 1:
            raise OutOfRangeError("counts must be a nonempty 1-d sequence")
        if raw.dtype.kind not in "iuf":
            raise OutOfRangeError(f"counts must be integers or floats, got dtype {raw.dtype}")
        # numpy reads a bool among numbers as 0 or 1, so a list's items are looked at.
        if raw is not block and any(isinstance(x, (bool, np.bool_)) for x in block):
            raise OutOfRangeError("counts must be integers or floats, got a bool")
        if raw.size == 0:
            continue
        n_total += raw.size
        # np.minimum and np.maximum keep a NaN, as raw.min() over all counts would.
        low = raw.min() if low is None else np.minimum(low, raw.min())
        high = raw.max() if high is None else np.maximum(high, raw.max())
        if raw.dtype.kind == "f":
            integral = integral and bool(np.all(raw == np.trunc(raw)))
        if low >= 0 and high <= SUPPORT_CAP and integral:
            counts = np.bincount(raw.astype(np.int64, copy=False))
            if counts.size < histogram.size:
                counts, histogram = histogram, counts
            counts[: histogram.size] += histogram
            histogram = counts
    if n_total == 0:
        raise OutOfRangeError("counts must be a nonempty 1-d sequence")
    if low < 0:
        raise OutOfRangeError(f"negative count {low} in input")
    if high > SUPPORT_CAP:
        raise OutOfRangeError(f"count {high} exceeds the supported ceiling {SUPPORT_CAP}")
    if not integral:
        raise OutOfRangeError("counts must be integers")
    return histogram, n_total
