"""Parameter and distribution types shared across the package.

The central parameter object is :class:`CorrelationModel`, the vector
(C_1, ..., C_{l_max}) of correlation coefficients of a family of
exchangeable binary events, optionally tied to a finite event count N.

Exchangeability is exploited structurally everywhere: a symmetric function
on {0,1}^k is stored compressed as k+1 numbers indexed by how many
arguments equal one (:class:`SymmetricTable`), and a full joint over N
events is stored as one weight per number-of-ones pattern class
(:class:`ExchangeableJoint`).  Count distributions carry an explicit tail
bound and an admissibility flag (:class:`Pmf`).

All types are immutable after construction and all operations are pure,
so everything here is safe for unrestricted concurrent use.
"""

import json
import math
import warnings
from dataclasses import dataclass

__all__ = [
    "ADMISSIBILITY_TOL",
    "TABLE_TOL",
    "MAX_JOINT_EVENTS",
    "KIND_PROBABILITY",
    "KIND_CORRELATION",
    "CorrcountError",
    "BadShapeError",
    "NonFiniteError",
    "OutOfRangeError",
    "SeriesOverflowError",
    "NonConvergentError",
    "TailTooHeavyError",
    "InadmissiblePmfError",
    "TooFewSamplesError",
    "BadSpecError",
    "InvalidDistributionError",
    "IdentityCheckError",
    "TrailingZeroWarning",
    "CorrelationModel",
    "SymmetricTable",
    "ExchangeableJoint",
    "Pmf",
    "CfGrid",
    "validate_model",
    "reduced_correlation",
    "correlation_coefficient",
    "m_factor",
]

# A pmf entry below -ADMISSIBILITY_TOL marks the producing model inadmissible.
ADMISSIBILITY_TOL = 1e-9
# Normalization slack for probability tables and joints.
TABLE_TOL = 1e-12
# Largest joint size n for which every C(n, m) converts to a float.
MAX_JOINT_EVENTS = 1029

KIND_PROBABILITY = "probability"
KIND_CORRELATION = "correlation"


class CorrcountError(Exception):
    """Base class for all errors raised by this package."""


class BadShapeError(CorrcountError):
    """A container has the wrong length/order or a required field is missing."""


class NonFiniteError(CorrcountError):
    """An input coefficient or weight is NaN or infinite."""


class OutOfRangeError(CorrcountError):
    """An index or size argument lies outside its documented domain."""


class SeriesOverflowError(CorrcountError):
    """The requested event count exceeds the double-precision policy ceiling."""


class NonConvergentError(CorrcountError):
    """The adaptive support search hit its cap before meeting the mass tolerance."""


class TailTooHeavyError(CorrcountError):
    """The pmf tail bound is too large for the requested operation."""


class InadmissiblePmfError(CorrcountError):
    """The pmf carries negative mass beyond tolerance and cannot be sampled."""


class TooFewSamplesError(CorrcountError):
    """Not enough observations for the requested estimation order."""


class BadSpecError(CorrcountError):
    """A mixture specification violates its constraints."""


class InvalidDistributionError(CorrcountError):
    """A probability table or joint violates nonnegativity or normalization."""


class IdentityCheckError(CorrcountError):
    """Two internally computed forms of the same quantity disagree."""


class TrailingZeroWarning(UserWarning):
    """The declared maximum order has coefficient exactly zero.

    Downstream formulas remain valid; the model simply overstates its
    genuine correlation order.
    """


@dataclass(frozen=True)
class CorrelationModel:
    """Coefficient vector (C_1, ..., C_{l_max}) with an optional event count N.

    ``c`` is ordered C_1, ..., C_{l_max}; use :meth:`coefficient` for
    1-based access.  ``n`` is None for limit-law computations and a
    positive integer >= l_max for finite-N ones.
    """

    l_max: int
    c: tuple[float, ...]
    n: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))

    @classmethod
    def from_coefficients(cls, c, n=None) -> "CorrelationModel":
        c = tuple(float(x) for x in c)
        return cls(l_max=len(c), c=c, n=n)

    def coefficient(self, l: int) -> float:
        """C_l for 1 <= l <= l_max."""
        if not 1 <= l <= self.l_max:
            raise OutOfRangeError(f"order {l} outside 1..{self.l_max}")
        return self.c[l - 1]

    def to_json_dict(self) -> dict:
        return {"l_max": self.l_max, "c": list(self.c), "n": self.n}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "CorrelationModel":
        try:
            l_max = data["l_max"]
            c = data["c"]
        except (KeyError, TypeError) as exc:
            raise BadShapeError(f"model JSON needs 'l_max' and 'c': {exc}") from exc
        try:
            return cls(l_max=l_max, c=tuple(c), n=data.get("n"))
        except (TypeError, ValueError) as exc:
            raise BadShapeError(f"bad model JSON contents: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "CorrelationModel":
        return cls.from_json_dict(json.loads(text))


def validate_model(model: CorrelationModel) -> CorrelationModel:
    """Check the model invariants and return the model unchanged.

    Emits :class:`TrailingZeroWarning` when C_{l_max} is exactly zero.

    Raises:
        BadShapeError: l_max < 1, coefficient count mismatch, or n < l_max.
        NonFiniteError: any coefficient is NaN or infinite.
    """
    if not isinstance(model.l_max, int) or model.l_max < 1:
        raise BadShapeError(f"l_max must be a positive integer, got {model.l_max!r}")
    if len(model.c) != model.l_max:
        raise BadShapeError(
            f"expected {model.l_max} coefficients, got {len(model.c)}"
        )
    for l, value in enumerate(model.c, start=1):
        if not math.isfinite(value):
            raise NonFiniteError(f"C_{l} = {value!r} is not finite")
    if model.n is not None:
        if not isinstance(model.n, int) or model.n < 1:
            raise BadShapeError(f"n must be a positive integer, got {model.n!r}")
        if model.n < model.l_max:
            raise BadShapeError(f"n = {model.n} is below l_max = {model.l_max}")
    if model.c[-1] == 0.0:
        warnings.warn(
            f"C_{model.l_max} = 0: model is correlated to an order below its "
            "declared l_max",
            TrailingZeroWarning,
            stacklevel=2,
        )
    return model


@dataclass(frozen=True)
class SymmetricTable:
    """A symmetric function on {0,1}^k stored by number of ones.

    ``values[m]`` is the function value at any argument pattern with
    exactly m ones; :meth:`expanded` materializes the per-pattern view for
    small orders so symmetry can be tested rather than assumed.
    """

    order: int
    kind: str
    values: tuple[float, ...]

    #: per-pattern views are limited to 2^12 entries
    MAX_EXPANDED_ORDER = 12

    def __post_init__(self):
        if self.kind not in (KIND_PROBABILITY, KIND_CORRELATION):
            raise BadShapeError(f"unknown table kind {self.kind!r}")
        if not isinstance(self.order, int) or self.order < 1:
            raise BadShapeError(f"order must be a positive integer, got {self.order!r}")
        object.__setattr__(self, "values", tuple(float(x) for x in self.values))
        if len(self.values) != self.order + 1:
            raise BadShapeError(
                f"order {self.order} needs {self.order + 1} values, "
                f"got {len(self.values)}"
            )

    @classmethod
    def probability(cls, values) -> "SymmetricTable":
        """Build a probability table and enforce its invariants."""
        table = cls(order=len(tuple(values)) - 1, kind=KIND_PROBABILITY, values=tuple(values))
        table.require_normalized()
        return table

    @classmethod
    def correlation(cls, values) -> "SymmetricTable":
        return cls(order=len(tuple(values)) - 1, kind=KIND_CORRELATION, values=tuple(values))

    def require_normalized(self) -> None:
        """Probability tables must be nonnegative and sum to one over patterns."""
        for v in self.values:
            if not math.isfinite(v):
                raise NonFiniteError(f"table value {v!r} is not finite")
        if min(self.values) < -TABLE_TOL:
            raise InvalidDistributionError(
                f"negative probability entry {min(self.values)!r}"
            )
        total = math.fsum(
            math.comb(self.order, m) * v for m, v in enumerate(self.values)
        )
        if abs(total - 1.0) > TABLE_TOL:
            raise InvalidDistributionError(
                f"pattern masses sum to {total!r}, not 1"
            )

    def value_at(self, pattern) -> float:
        """Value at an explicit pattern of 0/1 arguments."""
        pattern = tuple(pattern)
        if len(pattern) != self.order:
            raise BadShapeError(
                f"pattern length {len(pattern)} != order {self.order}"
            )
        if any(r not in (0, 1) for r in pattern):
            raise OutOfRangeError(f"pattern entries must be 0 or 1: {pattern}")
        return self.values[sum(pattern)]

    def expanded(self) -> dict[tuple[int, ...], float]:
        """Per-pattern dictionary over all 2^order argument patterns."""
        if self.order > self.MAX_EXPANDED_ORDER:
            raise OutOfRangeError(
                f"expanded view limited to order {self.MAX_EXPANDED_ORDER}"
            )
        out = {}
        for bits in range(2 ** self.order):
            pattern = tuple((bits >> i) & 1 for i in range(self.order))
            out[pattern] = self.values[sum(pattern)]
        return out


@dataclass(frozen=True)
class ExchangeableJoint:
    """Joint distribution of N exchangeable binary events.

    ``pattern_weight[m]`` is the probability of any single outcome pattern
    with exactly m ones; the C(N, m)-fold multiplicity is implicit.
    """

    n: int
    pattern_weight: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise BadShapeError(f"n must be a positive integer, got {self.n!r}")
        if self.n > MAX_JOINT_EVENTS:
            raise OutOfRangeError(
                f"joint of n = {self.n} events exceeds the supported ceiling "
                f"{MAX_JOINT_EVENTS}"
            )
        object.__setattr__(
            self, "pattern_weight", tuple(float(x) for x in self.pattern_weight)
        )
        if len(self.pattern_weight) != self.n + 1:
            raise BadShapeError(
                f"n = {self.n} needs {self.n + 1} pattern weights, "
                f"got {len(self.pattern_weight)}"
            )
        for w in self.pattern_weight:
            if not math.isfinite(w):
                raise NonFiniteError(f"pattern weight {w!r} is not finite")
            if w < 0.0:
                raise InvalidDistributionError(f"negative pattern weight {w!r}")
        total = math.fsum(
            math.comb(self.n, m) * w for m, w in enumerate(self.pattern_weight)
        )
        if abs(total - 1.0) > TABLE_TOL:
            raise InvalidDistributionError(f"joint mass sums to {total!r}, not 1")


@dataclass(frozen=True)
class Pmf:
    """Count distribution on {0, ..., s_max} with an explicit tail bound.

    ``admissible`` is False when some entry falls below -ADMISSIBILITY_TOL,
    which signals that the producing coefficient vector does not define a
    probability model; the signed values are kept for inspection.
    """

    values: tuple[float, ...]
    tail_bound: float = 0.0
    admissible: bool = True
    error_estimate: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(x) for x in self.values))
        if not self.values:
            raise BadShapeError("pmf needs at least one entry")

    @classmethod
    def from_values(cls, values, tail_bound=0.0, error_estimate=0.0) -> "Pmf":
        values = tuple(float(x) for x in values)
        finite = all(math.isfinite(v) for v in values)
        admissible = finite and min(values) >= -ADMISSIBILITY_TOL
        return cls(
            values=values,
            tail_bound=float(tail_bound),
            admissible=admissible,
            error_estimate=float(error_estimate),
        )

    @property
    def s_max(self) -> int:
        return len(self.values) - 1

    def total_mass(self) -> float:
        return math.fsum(self.values)

    def mean(self) -> float:
        return math.fsum(s * p for s, p in enumerate(self.values))

    def most_negative(self) -> tuple[int, float]:
        """(s, p(s)) at the most negative entry; the minimum if all are >= 0."""
        s = min(range(len(self.values)), key=self.values.__getitem__)
        return s, self.values[s]


@dataclass(frozen=True)
class CfGrid:
    """Characteristic-function samples chi(u) on a grid of real arguments."""

    u: tuple[float, ...]
    chi: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(x) for x in self.u))
        object.__setattr__(self, "chi", tuple(complex(z) for z in self.chi))
        if len(self.u) != len(self.chi):
            raise BadShapeError(
                f"grid length {len(self.u)} != value count {len(self.chi)}"
            )


def reduced_correlation(model: CorrelationModel, k: int, q: int) -> float:
    """Correlation-function value of order k with q zero arguments.

    For exchangeable events the order-k correlation function is determined
    by its all-ones value: flipping any argument to zero flips the sign, so
    the value at q zeros is (-1)^q * C_k / N^k.  Only k >= 2 is handled
    here; at order one the two values are C_1/N and 1 - C_1/N.
    """
    if model.n is None:
        raise BadShapeError("reduced_correlation requires a model with n")
    if not 2 <= k <= model.l_max:
        raise OutOfRangeError(f"order k = {k} outside 2..{model.l_max}")
    if not 0 <= q <= k:
        raise OutOfRangeError(f"zero count q = {q} outside 0..{k}")
    return (-1) ** q * model.coefficient(k) / float(model.n) ** k


def correlation_coefficient(table: SymmetricTable, n: int) -> float:
    """Scaled all-ones entry N^k * G_k(1, ..., 1) of a correlation table."""
    if not isinstance(n, int) or n < 1:
        raise OutOfRangeError(f"n must be a positive integer, got {n!r}")
    if table.order > n:
        raise OutOfRangeError(f"table order {table.order} exceeds n = {n}")
    return float(n) ** table.order * table.values[table.order]


def m_factor(n_l: int, l: int, k_l: int) -> int:
    """Number of ways to choose l ordered k_l-plets from n_l elements.

    Exact integer value n_l! / (n_l - l*k_l)! / k_l!; arbitrary size.
    """
    for name, value in (("n_l", n_l), ("l", l), ("k_l", k_l)):
        if not isinstance(value, int):
            raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
    if l < 1 or k_l < 0:
        raise OutOfRangeError(f"need l >= 1 and k_l >= 0, got l={l}, k_l={k_l}")
    if n_l < l * k_l:
        raise OutOfRangeError(f"n_l = {n_l} below l*k_l = {l * k_l}")
    return (
        math.factorial(n_l)
        // math.factorial(n_l - l * k_l)
        // math.factorial(k_l)
    )
