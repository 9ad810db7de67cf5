"""Samplers, mixture test joints, and coefficient estimation from counts.

Mixtures of iid Bernoulli sequences are exchangeable by construction, so
they are the canonical generator of test joints.  Count sampling is plain
inverse-CDF driven by a frozen generator: NumPy's PCG64 bit stream seeded
with the user integer, one uniform double per sample, so identical inputs
give identical output sequences.  Coefficient estimation is a plug-in
through empirical factorial moments and the moment-to-cumulant map, with
bootstrap standard errors drawn from a seed stream derived from the user
seed.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_JOINT_EVENTS,
    BadSpecError,
    ExchangeableJoint,
    InadmissiblePmfError,
    OutOfRangeError,
    Pmf,
    TooFewSamplesError,
)
from .limit import factorial_cumulants

__all__ = [
    "DEFAULT_BOOTSTRAP",
    "MAX_ESTIMATE_ORDER",
    "MixtureSpec",
    "EstimateReport",
    "build_mixture_joint",
    "sample_counts",
    "estimate_coefficients",
]

DEFAULT_BOOTSTRAP = 200
# Sampling noise in higher factorial moments explodes past this order.
MAX_ESTIMATE_ORDER = 4


@dataclass(frozen=True)
class MixtureSpec:
    """Atoms (p, weight) of a finite mixture of iid Bernoulli sequences."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(p), float(w)) for p, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise BadSpecError("mixture needs at least one atom")
        for p, w in atoms:
            if not (math.isfinite(p) and math.isfinite(w)):
                raise BadSpecError(f"non-finite atom ({p!r}, {w!r})")
            if not 0.0 <= p <= 1.0:
                raise BadSpecError(f"atom probability {p!r} outside [0, 1]")
            if w < 0.0:
                raise BadSpecError(f"negative atom weight {w!r}")
        total = math.fsum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise BadSpecError(f"atom weights sum to {total!r}, not 1")


@dataclass(frozen=True)
class EstimateReport:
    """Plug-in coefficient estimates with bootstrap standard errors."""

    c_hat: tuple[float, ...]
    std_err: tuple[float, ...]
    n_samples: int
    n_bootstrap: int

    def to_json_dict(self) -> dict:
        return {
            "c_hat": list(self.c_hat),
            "std_err": list(self.std_err),
            "n_samples": self.n_samples,
            "n_bootstrap": self.n_bootstrap,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def build_mixture_joint(spec: MixtureSpec, n: int) -> ExchangeableJoint:
    """Exchangeable joint of n events from a Bernoulli mixture.

    pattern_weight[m] = sum over atoms of weight * p^m (1-p)^(n-m).
    """
    if not isinstance(n, int) or n < 1:
        raise BadSpecError(f"event count must be a positive integer, got {n!r}")
    if n > MAX_JOINT_EVENTS:
        raise OutOfRangeError(
            f"joint of n = {n} events exceeds the supported ceiling {MAX_JOINT_EVENTS}"
        )
    weights = [
        math.fsum(w * p ** m * (1.0 - p) ** (n - m) for p, w in spec.atoms)
        for m in range(n + 1)
    ]
    return ExchangeableJoint(n=n, pattern_weight=tuple(weights))


def sample_counts(pmf: Pmf, n_samples: int, seed: int) -> np.ndarray:
    """Draw counts from a pmf by inverse CDF; deterministic in (pmf, seed).

    Generator contract, frozen: PCG64 seeded with ``seed``, one uniform
    double per sample via Generator.random, mapped through searchsorted on
    the cumulative masses (entries clipped at zero; the at-most-tail_bound
    sliver of uniforms beyond the last cumulative value lands on s_max).
    """
    if not isinstance(n_samples, int) or n_samples < 1:
        raise OutOfRangeError(f"n_samples must be a positive integer, got {n_samples!r}")
    if not pmf.admissible:
        s, value = pmf.most_negative()
        raise InadmissiblePmfError(
            f"cannot sample: p({s}) = {value!r} is negative beyond tolerance"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(np.clip(np.asarray(pmf.values), 0.0, None))
    u = rng.random(n_samples)
    counts = np.searchsorted(cdf, u, side="right")
    return np.minimum(counts, len(pmf.values) - 1).astype(np.int64)


def estimate_coefficients(
    counts,
    l_max: int,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    seed: int = 0,
) -> EstimateReport:
    """Estimate (C_1, ..., C_l_max) from observed counts.

    The point estimate is the empirical factorial cumulants; standard
    errors come from ``n_bootstrap`` resamples with replacement, each drawn
    from its own child of np.random.SeedSequence(seed).

    Raises:
        OutOfRangeError: l_max outside 1..MAX_ESTIMATE_ORDER or n_bootstrap < 2.
        TooFewSamplesError: fewer than 10^l_max observations.
    """
    if not isinstance(l_max, int) or not 1 <= l_max <= MAX_ESTIMATE_ORDER:
        raise OutOfRangeError(
            f"estimation order must lie in 1..{MAX_ESTIMATE_ORDER}, got {l_max!r}"
        )
    if not isinstance(n_bootstrap, int) or n_bootstrap < 2:
        raise OutOfRangeError(f"n_bootstrap must be >= 2, got {n_bootstrap!r}")
    raw = np.asarray(counts)
    if raw.ndim != 1 or raw.size == 0:
        raise OutOfRangeError("counts must be a nonempty 1-d sequence")
    data = raw.astype(np.int64)
    if raw.dtype.kind == "f" and not np.array_equal(raw, data):
        raise OutOfRangeError("counts must be integers")
    if data.min() < 0:
        raise OutOfRangeError(f"negative count {int(data.min())} in input")
    n_total = int(data.size)
    floor = 10 ** l_max
    if n_total < floor:
        raise TooFewSamplesError(
            f"order {l_max} needs at least {floor} samples, got {n_total}"
        )

    histogram = np.bincount(data).astype(float)
    c_hat = factorial_cumulants(histogram, l_max, total=n_total)

    replicates = np.empty((n_bootstrap, l_max))
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(n_bootstrap)):
        rng = np.random.Generator(np.random.PCG64(child))
        resampled = data[rng.integers(0, n_total, size=n_total)]
        hist_b = np.bincount(resampled, minlength=histogram.size).astype(float)
        replicates[b] = factorial_cumulants(hist_b, l_max, total=n_total)
    std_err = tuple(float(x) for x in replicates.std(axis=0, ddof=1))

    return EstimateReport(
        c_hat=c_hat,
        std_err=std_err,
        n_samples=n_total,
        n_bootstrap=n_bootstrap,
    )
