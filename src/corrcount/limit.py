"""The N -> infinity count law for a fixed coefficient vector.

The limiting probability generating function is exp(Q(z)) with

    Q(z) = sum_l C_l (z - 1)^l / l!,

a polynomial of degree l_max; the characteristic function is
exp(Q(e^{iu})).  Pmf values are the power-series coefficients of exp(Q),
generated by the standard recurrence for the exponential of a polynomial
(exp(Q) is entire, so the coefficient series always converges absolutely
to 1, even for coefficient vectors that are not admissible).  log of the
generating function at z = 1 + w is sum_l C_l w^l / l!, so the factorial
cumulants of the limiting law are exactly the C_l; the moment-side
extractor recovers them from any sufficiently tail-light pmf.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CfGrid,
    CorrelationModel,
    IdentityCheckError,
    NonConvergentError,
    OutOfRangeError,
    Pmf,
    TailTooHeavyError,
    validate_model,
)

__all__ = [
    "SUPPORT_CAP",
    "MAX_CUMULANT_ORDER",
    "ExponentPolynomial",
    "exponent_polynomial",
    "char_fn",
    "limit_pmf",
    "factorial_cumulants",
    "factorial_cumulants_from_pmf",
]

# Adaptive support search refuses past this many pmf entries.
SUPPORT_CAP = 10 ** 6
# Moment-to-cumulant combinatorics beyond this order only amplifies tail noise.
MAX_CUMULANT_ORDER = 6


@dataclass(frozen=True)
class ExponentPolynomial:
    """Coefficients of Q(z) = sum_t q_coeffs[t] z^t; Q(1) = 0."""

    q_coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "q_coeffs", tuple(float(x) for x in self.q_coeffs))

    @property
    def degree(self) -> int:
        return len(self.q_coeffs) - 1

    def __call__(self, z: complex) -> complex:
        out: complex = 0.0
        for coeff in reversed(self.q_coeffs):
            out = out * z + coeff
        return out


def exponent_polynomial(model: CorrelationModel) -> ExponentPolynomial:
    """Exponent Q of the limiting generating function exp(Q(z)).

    Computed twice: literally as the occupancy double sum
    q[t] = sum_l (-1)^(l-t) C_l binom(l, t) / l!, and independently by
    accumulating C_l (z-1)^l / l! through repeated polynomial
    multiplication.  The two routes must agree; the check ships with the
    computation.
    """
    model = validate_model(model)
    l_max = model.l_max

    q = [0.0] * (l_max + 1)
    for l in range(1, l_max + 1):
        w = model.coefficient(l) / math.factorial(l)
        for t in range(l + 1):
            q[t] += (-1) ** (l - t) * w * math.comb(l, t)

    alt = np.zeros(l_max + 1)
    power = np.array([1.0])
    for l in range(1, l_max + 1):
        power = np.convolve(power, [-1.0, 1.0])
        alt[: l + 1] += model.coefficient(l) / math.factorial(l) * power

    scale = max(
        1.0,
        sum(abs(model.coefficient(l)) * 2.0 ** l / math.factorial(l)
            for l in range(1, l_max + 1)),
    )
    if max(abs(q[t] - alt[t]) for t in range(l_max + 1)) > 1e-14 * scale:
        raise IdentityCheckError("double-sum and binomial forms of Q disagree")
    return ExponentPolynomial(tuple(q))


def char_fn(model: CorrelationModel, u_grid) -> CfGrid:
    """Characteristic function chi(u) = exp(Q(e^{iu})) on a grid."""
    q = exponent_polynomial(model)
    u = np.asarray(list(u_grid), dtype=float)
    chi = np.exp(np.polyval(list(reversed(q.q_coeffs)), np.exp(1j * u)))
    return CfGrid(tuple(u.tolist()), tuple(chi.tolist()))


def limit_pmf(model: CorrelationModel, mass_tolerance: float = 1e-12) -> Pmf:
    """Limiting count pmf as power-series coefficients of exp(Q(z)).

    p(0) = exp(q_0) and n p(n) = sum_j j q_j p(n-j).  The support grows
    adaptively (starting near the mean plus ten standard deviations,
    doubling) until the missing mass |1 - sum p| is within
    ``mass_tolerance``, which is recorded as the tail bound.

    Raises:
        OutOfRangeError: mass_tolerance outside (0, 1e-6].
        NonConvergentError: support would exceed SUPPORT_CAP entries.
    """
    if not 0.0 < mass_tolerance <= 1e-6:
        raise OutOfRangeError(
            f"mass_tolerance must lie in (0, 1e-6], got {mass_tolerance!r}"
        )
    q_poly = exponent_polynomial(model)
    q = q_poly.q_coeffs
    l_max = q_poly.degree

    c1 = model.coefficient(1)
    c2 = model.coefficient(2) if model.l_max >= 2 else 0.0
    s_max = math.ceil(c1 + 10.0 * math.sqrt(max(c1 + c2, 1.0)))
    s_max = max(s_max, l_max, 1)

    p = [math.exp(q[0])]

    def extend_to(limit: int) -> None:
        for n in range(len(p), limit + 1):
            terms = math.fsum(
                j * q[j] * p[n - j] for j in range(1, min(n, l_max) + 1)
            )
            p.append(terms / n)

    while True:
        if s_max > SUPPORT_CAP:
            raise NonConvergentError(
                f"needed support beyond {SUPPORT_CAP} entries before reaching "
                f"mass tolerance {mass_tolerance}; coefficients are far from "
                "admissible"
            )
        extend_to(s_max)
        missing = abs(1.0 - math.fsum(p))
        if missing <= mass_tolerance:
            break
        s_max *= 2

    while len(p) > 1 and p[-1] == 0.0:
        p.pop()
    tail = abs(1.0 - math.fsum(p))
    return Pmf.from_values(p, tail_bound=tail)


def factorial_cumulants(weights, l_max: int, total: float = 1.0) -> tuple[float, ...]:
    """First l_max factorial cumulants of masses on the counts 0, 1, 2, ...

    ``weights[s]`` is the mass at count s: a pmf, or a histogram of
    ``total`` observations.  Factorial moments
    f_r = sum_s s(s-1)...(s-r+1) weights[s] / total feed the standard
    moment-to-cumulant recursion
    c_r = f_r - sum_{j<r} binom(r-1, j-1) c_j f_{r-j}.
    """
    weights = np.asarray(weights, dtype=float)
    support = np.arange(weights.size, dtype=float)

    falling = np.ones_like(weights)
    moments = [1.0]
    for r in range(1, l_max + 1):
        falling = falling * (support - (r - 1))
        moments.append(float(np.dot(falling, weights)) / total)

    cumulants: list[float] = []
    for r in range(1, l_max + 1):
        acc = moments[r]
        for j in range(1, r):
            acc -= math.comb(r - 1, j - 1) * cumulants[j - 1] * moments[r - j]
        cumulants.append(acc)
    return tuple(cumulants)


def factorial_cumulants_from_pmf(pmf: Pmf, l_max: int) -> tuple[float, ...]:
    """First l_max factorial cumulants of a count pmf.

    See :func:`factorial_cumulants`.  For the limiting law these cumulants
    equal the model coefficients.

    Raises:
        OutOfRangeError: l_max outside 1..MAX_CUMULANT_ORDER.
        TailTooHeavyError: pmf tail bound above 1e-10.
    """
    if not isinstance(l_max, int) or not 1 <= l_max <= MAX_CUMULANT_ORDER:
        raise OutOfRangeError(
            f"cumulant order must lie in 1..{MAX_CUMULANT_ORDER}, got {l_max!r}"
        )
    if pmf.tail_bound > 1e-10:
        raise TailTooHeavyError(
            f"tail bound {pmf.tail_bound!r} too large for cumulants of order {l_max}"
        )
    return factorial_cumulants(pmf.values, l_max)
