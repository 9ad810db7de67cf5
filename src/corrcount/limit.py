"""The N -> infinity count law for a fixed coefficient vector.

The limiting probability generating function is exp(Q(z)) with

    Q(z) = sum_l C_l (z - 1)^l / l!,

a polynomial of degree l_max formed by one route, the occupancy double
sum; orders past MAX_ORDER (l! overflows) and an overflowing q_t are
refused.  The characteristic function is exp(Q(e^{iu})).  Pmf values
are the power-series coefficients of exp(Q),
generated by the standard recurrence for the exponential of a polynomial
(exp(Q) is entire, so Cauchy's estimate bounds the omitted tail, even for
coefficient vectors that are not admissible).  log of the generating
function at z = 1 + w is sum_l C_l w^l / l!, so the factorial cumulants
of the limiting law are exactly the C_l; :func:`factorial_cumulants`
reads them off a pmf or a histogram of counts.
"""
import math
import sys

from .core import (
    MAX_POINTS,
    CfGrid,
    CorrelationModel,
    NonConvergentError,
    NonFiniteError,
    OutOfRangeError,
    Pmf,
    _array,
    _is_number,
    _numbers,
    fsum_or_inf,
    is_int_in,
)

__all__ = [
    "DEFAULT_MASS_TOL",
    "SUPPORT_CAP",
    "MAX_ORDER",
    "exponent_polynomial",
    "char_fn",
    "limit_pmf",
    "factorial_cumulants",
]

# The mass tolerance of limit_pmf, and of the CLI's --tol, unless one is given.
DEFAULT_MASS_TOL = 1e-12
# Adaptive support search refuses past this many pmf entries.
SUPPORT_CAP = 10 ** 6
# 171! exceeds the largest double, so C_l / l! has no order beyond this.
MAX_ORDER = 170
# exp(q) overflows above _LOG_MAX.
_LOG_MAX = math.log(sys.float_info.max)
# ln 2 split so that e * _LN2_HI is exact for |e| < 2^21 (Cody & Waite).
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def exponent_polynomial(model: CorrelationModel) -> tuple[float, ...]:
    """Coefficients (q_0, ..., q_l_max) of Q(z) = sum_t q_t z^t; Q(1) = 0.

    Q is the exponent of the limiting generating function exp(Q(z)),
    computed as the occupancy double sum
    q[t] = sum_l (-1)^(l-t) C_l binom(l, t) / l!.

    Raises:
        OutOfRangeError: l_max above MAX_ORDER, where l! overflows a double.
        NonFiniteError: some q_t overflows a double.
    """
    l_max = model.l_max
    if l_max > MAX_ORDER:
        raise OutOfRangeError(f"order l = {l_max}: l! = {l_max}! overflows a double")

    q = [0.0] * (l_max + 1)
    for l in range(1, l_max + 1):
        w = model.coefficient(l) / math.factorial(l)
        for t in range(l + 1):
            q[t] += (-1) ** (l - t) * w * math.comb(l, t)
    for t, x in enumerate(q):
        if not math.isfinite(x):
            raise NonFiniteError(f"q_{t} = {x!r} is not finite: Q overflows a double")
    return tuple(q)


def char_fn(model: CorrelationModel, u_grid) -> CfGrid:
    """Characteristic function chi(u) = exp(Q(e^{iu})) on a grid.

    Q(e^{iu}) is evaluated by Horner's rule from q_l_max down to q_0,
    the loop ``numpy.polyval`` runs, in plain complex arithmetic.

    Raises:
        BadShapeError: ``u_grid`` is not an array of numbers (by ``core._numbers``).
        OutOfRangeError: more than MAX_POINTS grid points.
        NonFiniteError: a grid point is NaN or infinite, or chi(u)
            overflows double precision.
    """
    import cmath

    q = exponent_polynomial(model)[::-1]
    u = _numbers(u_grid, "u_grid")
    if len(u) > MAX_POINTS:
        raise OutOfRangeError(
            f"grid of {len(u)} points exceeds the supported ceiling {MAX_POINTS}"
        )
    for i, x in enumerate(u):
        if not math.isfinite(x):
            raise NonFiniteError(f"u[{i}] = {x!r} is not finite")
    chi = []
    for i, x in enumerate(u):
        z = cmath.exp(1j * x)
        y = 0j
        for c in q:
            y = y * z + c
        try:
            value = cmath.exp(y)
        except (OverflowError, ValueError):  # raised for an infinite or NaN part
            value = None
        if value is None or not cmath.isfinite(value):
            raise NonFiniteError(
                f"chi(u[{i}] = {x!r}) = exp({y!r}) is not finite: "
                "exp(Q(e^iu)) overflowed double precision"
            )
        chi.append(value)
    return CfGrid(u, chi)


def _tail_bound(q: tuple[float, ...], support: int) -> float:
    """Cauchy bound on sum_{n > support} |p(n)|, p the coefficients of exp(Q).

    For real q and r = e^t > 1, |p(n)| <= exp(q_0 + sum_j |q_j| r^j) r^-n,
    so the tail is at most that times r^-(support+1) / (1 - 1/r), convex in
    t with slope sum_j j |q_j| e^{jt} - (support+1) - 1/(e^t - 1).  Any t
    gives a valid bound; bisection on the slope over (0, _LOG_MAX] picks one.
    A sum that overflows is inf: a positive slope, or a bound that fails.
    """
    logs = [(j, math.log(abs(x))) for j, x in enumerate(q) if j and x]
    if not logs:  # Q is constant
        return 0.0
    lo, hi = 0.0, _LOG_MAX
    for _ in range(64):
        t = 0.5 * (lo + hi)
        # Terms clip to exp(_LOG_MAX) only where the slope is positive.
        rate = fsum_or_inf(j * math.exp(min(a + j * t, _LOG_MAX)) for j, a in logs)
        lo, hi = (t, hi) if rate < support + 1 + 1.0 / math.expm1(t) else (lo, t)
    log_bound = q[0] + fsum_or_inf(math.exp(min(a + j * hi, _LOG_MAX)) for j, a in logs)
    log_bound -= (support + 1) * hi + math.log(-math.expm1(-hi))
    return math.exp(log_bound) if log_bound < _LOG_MAX else math.inf


def limit_pmf(model: CorrelationModel, mass_tolerance: float = DEFAULT_MASS_TOL) -> Pmf:
    """Limiting count pmf as power-series coefficients of exp(Q(z)).

    n p(n) = sum_j j q_j p(n-j).  The support S starts at the mean plus ten
    standard deviations and doubles until the Cauchy bound on the omitted
    mass (``tail_bound``) is within ``mass_tolerance``.  The recurrence then
    runs once on p(n) 2^-e, seeded with exp(q_0 - e ln 2), e = 0 whenever
    exp(q_0) is a normal double; 2^500 moves into e whenever an entry passes
    2^500 (exact).  The drift |1 - sum p| is the ``error_estimate``.  The
    rounded q sum to Q(1) = fsum(q), not 0, so the exact series has mass
    exp(Q(1)), and the drift budget includes |exp(Q(1)) - 1|.

    Raises:
        OutOfRangeError: mass_tolerance not a number (a bool is not one) or
            outside (0, 1e-6], or exp(q_0) overflows.
        NonConvergentError: the tail bound needs more than SUPPORT_CAP
            entries, or the drift exceeds mass_tolerance plus the rounding
            of q plus one rounding per entry (cancellation swamps the
            series).
    """
    if not (_is_number(mass_tolerance) and 0.0 < mass_tolerance <= 1e-6):
        raise OutOfRangeError(
            f"mass_tolerance must lie in (0, 1e-6], got {mass_tolerance!r}"
        )
    q = exponent_polynomial(model)
    l_max = len(q) - 1
    if q[0] > _LOG_MAX:
        raise OutOfRangeError(
            f"p(0) = exp(q_0) overflows: q_0 = {q[0]!r} is above {_LOG_MAX:.2f}, "
            "the double-precision limit"
        )

    c1 = model.coefficient(1)
    c2 = model.coefficient(2) if model.l_max >= 2 else 0.0
    start = c1 + 10.0 * math.sqrt(max(c1 + c2, 1.0))  # inf if C_1 + C_2 overflows
    s_max = max(math.ceil(min(start, SUPPORT_CAP + 1)), l_max, 1)
    while s_max <= SUPPORT_CAP and (tail := _tail_bound(q, s_max)) > mass_tolerance:
        s_max *= 2
    if s_max > SUPPORT_CAP:
        tail = _tail_bound(q, SUPPORT_CAP)
        # |q_j| far above 2^53 can cancel that bound to 0 or inf: name the start.
        why = (
            f"the mean plus ten standard deviations is {start:.3e}"
            if start > SUPPORT_CAP and not 0.0 < tail < math.inf
            else f"the tail bound there is {tail:.3e}, above the mass "
            f"tolerance {mass_tolerance}"
        )
        raise NonConvergentError(
            f"needed support beyond the cap of {SUPPORT_CAP} entries: {why}"
        )

    e = 0 if math.exp(q[0]) >= sys.float_info.min else math.floor(q[0] / _LN2_HI)
    p = [math.exp(q[0] - e * _LN2_HI - e * _LN2_LO)]
    for n in range(1, s_max + 1):
        if abs(p[-1]) > 2.0 ** 500:
            p = [math.ldexp(x, -500) for x in p]
            e += 500
        p.append(math.fsum(
            j * q[j] * p[n - j] for j in range(1, min(n, l_max) + 1)
        ) / n)
    try:
        p = [math.ldexp(x, e) for x in p]
        drift = abs(1.0 - math.fsum(p))
    except OverflowError:  # entries of a far-from-admissible vector
        drift = math.inf
    while len(p) > 1 and p[-1] == 0.0:
        p.pop()
    rounding = abs(math.expm1(math.fsum(q))) + len(p) * sys.float_info.epsilon
    if not drift <= mass_tolerance + rounding:
        raise NonConvergentError(
            f"pmf mass drifts from 1 by {drift:.3e}, above tolerance {mass_tolerance} "
            "plus rounding: cancellation swamps coefficients far from admissible"
        )
    return Pmf.from_values(p, tail_bound=tail, error_estimate=drift)


def factorial_cumulants(weights, l_max: int, total: float = 1.0) -> tuple[float, ...]:
    """First l_max factorial cumulants of masses on the counts 0, 1, 2, ...

    ``weights[s]`` is the mass at count s: a pmf, or a histogram of
    ``total`` observations.  Factorial moments
    f_r = sum_s s(s-1)...(s-r+1) weights[s] / total feed the standard
    moment-to-cumulant recursion
    c_r = f_r - sum_{j<r} binom(r-1, j-1) c_j f_{r-j}.

    Raises:
        BadShapeError: ``weights`` is not an array of numbers (by ``core._array``).
        NonFiniteError: a weight past the double range.
        OutOfRangeError: ``l_max`` is not an integer >= 1 (by ``core.is_int_in``),
            or ``total`` is not a number in (0, inf).
    """
    import numpy as np

    masses = _array(weights, "weights")
    if not is_int_in(l_max, 1):
        raise OutOfRangeError(f"l_max must lie in 1..inf, got {l_max!r}")
    if not (_is_number(total) and 0.0 < total < math.inf):
        raise OutOfRangeError(f"total must lie in (0, inf), got {total!r}")
    if not hasattr(masses, "dtype"):  # items, of which _numbers refuses an int past a double
        masses = _numbers(masses, "weights")
    masses = np.asarray(masses, dtype=float)
    support = np.arange(masses.size, dtype=float)

    orders = range(1, int(l_max) + 1)
    falling = np.ones_like(masses)
    moments = [1.0]
    for r in orders:
        falling = falling * (support - (r - 1))
        moments.append(float(np.dot(falling, masses)) / total)

    cumulants: list[float] = []
    for r in orders:
        acc = moments[r]
        for j in range(1, r):
            acc -= math.comb(r - 1, j - 1) * cumulants[j - 1] * moments[r - j]
        cumulants.append(acc)
    return tuple(cumulants)

