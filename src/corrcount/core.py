"""Parameter and distribution types shared across the package.

The central parameter object is :class:`CorrelationModel`, the vector
(C_1, ..., C_{l_max}) of correlation coefficients of a family of
exchangeable binary events, optionally tied to a finite event count N.

Exchangeability is exploited structurally everywhere: a symmetric function
on {0,1}^k is stored as its k+1 class totals, the sums over the argument
patterns with each number of ones (:class:`SymmetricTable`), and a joint
of N events likewise as its count law, the mass of each class
(:class:`ExchangeableJoint`).  Count distributions carry an
explicit tail bound and flag their own admissibility (:class:`Pmf`).
A record stores only what it cannot derive: the order l_max of a model
and the event count of a joint are lengths, read as properties.  Every
record checks its fields when built, so each value is valid wherever used.
One rule, :func:`_numbers`, reads every numeric field: those of the records
here, the atoms of ``montecarlo.MixtureSpec`` and the grid of
``limit.char_fn``.
No record reads or writes a file format, prints or warns; the command line
does that.

All types are immutable after construction and all operations are pure,
so everything here is safe for unrestricted concurrent use.
"""

import math
import operator
from collections.abc import Iterable, Mapping

__all__ = [
    "ADMISSIBILITY_TOL",
    "TABLE_TOL",
    "MAX_POINTS",
    "CorrcountError",
    "BadShapeError",
    "NonFiniteError",
    "OutOfRangeError",
    "NonConvergentError",
    "InadmissiblePmfError",
    "InvalidDistributionError",
    "Record",
    "CorrelationModel",
    "SymmetricTable",
    "ExchangeableJoint",
    "Pmf",
    "CfGrid",
    "is_int_in",
    "fsum_or_inf",
    "validate_seed",
    "correlation_coefficient",
]

# A pmf entry below -ADMISSIBILITY_TOL marks the producing model inadmissible.
ADMISSIBILITY_TOL = 1e-9
# Normalization slack for joint masses and mixture weights.
TABLE_TOL = 1e-12
# Largest sample count or characteristic-function grid; beyond it the
# arrays alone would take gigabytes.
MAX_POINTS = 10 ** 7
# The numpy dtype kinds (ints, unsigned ints, floats, complex) of each kind of number.
_KINDS = {float: "iuf", complex: "iufc"}


class CorrcountError(Exception):
    """Base class for all errors raised by this package."""


class BadShapeError(CorrcountError):
    """A container, or an event count, of the wrong type, length or structure."""


class NonFiniteError(CorrcountError):
    """An input that is NaN or infinite, or a result that overflows a double."""


class OutOfRangeError(CorrcountError):
    """A number outside its documented domain or past a ceiling."""


class NonConvergentError(CorrcountError):
    """The adaptive support search hit its cap before meeting the mass tolerance."""


class InadmissiblePmfError(CorrcountError):
    """The pmf carries negative mass beyond tolerance and cannot be sampled."""


class InvalidDistributionError(CorrcountError):
    """Masses or weights that are negative or do not sum to 1."""


class Record:
    """Immutable value with equality, hash and repr over ``_fields``.

    A subclass names its fields in ``_fields`` and passes their final
    values, in that order, to ``Record.__init__``.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class CorrelationModel(Record):
    """Coefficient vector (C_1, ..., C_{l_max}) with an optional event count N.

    ``c`` is ordered C_1, ..., C_{l_max}, so the order ``l_max`` is its
    length; use :meth:`coefficient` for 1-based access.  ``n`` is None for
    limit-law computations and a positive integer >= l_max for finite-N
    ones.  The model is checked when built.  A C_{l_max} of exactly zero is
    valid, a model of lower order, and is accepted silently.

    Raises:
        BadShapeError: ``c`` is not a nonempty array of numbers (see
            :func:`_numbers`); or ``n`` is not a positive int (nor a bool)
            >= l_max.
        NonFiniteError: some C_l is NaN, infinite or past the double range.
    """

    _fields = ("c", "n")

    def __init__(self, c, n: int | None = None):
        c = _numbers(c, "c")
        if not c:
            raise BadShapeError("a model needs at least the coefficient C_1")
        for l, value in enumerate(c, start=1):
            if not math.isfinite(value):
                raise NonFiniteError(f"C_{l} = {value!r} is not finite")
        if n is not None and not is_int_in(n, 1):
            raise BadShapeError(f"n must be a positive integer, got {n!r}")
        if n is not None and n < len(c):
            raise BadShapeError(f"n = {n} is below l_max = {len(c)}")
        super().__init__(c, n)

    @property
    def l_max(self) -> int:
        return len(self.c)

    def coefficient(self, l: int) -> float:
        """C_l for 1 <= l <= l_max."""
        if not 1 <= l <= self.l_max:
            raise OutOfRangeError(f"order {l} outside 1..{self.l_max}")
        return self.c[l - 1]


def is_int_in(value, low: int, high: float = math.inf) -> bool:
    """Whether ``value`` is a Python int, not a bool, with low <= value <= high."""
    return isinstance(value, int) and not isinstance(value, bool) and low <= value <= high


def _numbers(values, field: str, kind: type = float) -> tuple:
    """The entries of an array of numbers, each converted by ``kind``.

    The one check of every numeric field.  A numpy array must be 1-d and is
    checked once by its dtype; any other iterable but a str, bytes or a
    mapping is checked item by item, by :func:`_is_number`.

    Raises:
        BadShapeError: ``values`` is not such an array; names ``field``.
        NonFiniteError: an int past the double range.
    """
    if hasattr(values, "dtype"):  # a numpy array or scalar
        if values.ndim == 1 and values.dtype.kind in _KINDS[kind]:
            return tuple(values.astype(kind, copy=False).tolist())
    elif _is_array(values):
        items = tuple(values)
        # Plain ints and floats, the common case, need no look at each item.
        if set(map(type, items)) <= {int, float, kind} or all(
            _is_number(x, kind) for x in items
        ):
            try:
                return tuple(map(kind, items))
            except OverflowError as exc:  # an int past the double range
                raise NonFiniteError(
                    f"an entry of '{field}' is not a finite double: {exc}"
                ) from exc
    raise BadShapeError(f"'{field}' must be an array of numbers, got {values!r}")


def _is_array(values) -> bool:
    """Whether ``values`` is iterable as an array: not a str, bytes or a mapping."""
    return isinstance(values, Iterable) and not isinstance(values, (str, bytes, Mapping))


def _is_number(x, kind: type = float) -> bool:
    """Whether ``x`` is an int or a float, numpy's included, or a complex for
    ``kind=complex``; a bool is not a number."""
    if hasattr(x, "dtype"):  # a numpy value: a bool's kind is "b", an array's shape not ()
        return x.shape == () and x.dtype.kind in _KINDS[kind]
    return isinstance(x, (int, float, kind)) and not isinstance(x, bool)


def fsum_or_inf(terms) -> float:
    """math.fsum of nonnegative terms; inf where their sum overflows a double."""
    try:
        return math.fsum(terms)
    except OverflowError:  # finite terms whose running sum passed the range
        return math.inf


def validate_seed(seed: int) -> None:
    """Check that a generator seed is a non-negative integer.

    NumPy refuses negative seeds with a bare ValueError; this names the
    seed as an input error instead.  NumPy's integers are seeds too.

    Raises:
        OutOfRangeError: the seed is not an integer, is a bool, or is negative.
    """
    try:
        valid = not isinstance(seed, bool) and is_int_in(operator.index(seed), 0)
    except TypeError:  # not an integer: a float, a string, numpy's bool
        valid = False
    if not valid:
        raise OutOfRangeError(f"seed must be a non-negative integer, got {seed!r}")


class SymmetricTable(Record):
    """A symmetric function on {0,1}^k stored by class total.

    ``values[m]`` is the sum of the function over the C(k, m) argument
    patterns with exactly m ones.  The tables G, and P rebuilt from G, are
    signed, so only the shape is checked.
    """

    _fields = ("values",)

    def __init__(self, values):
        values = _numbers(values, "values")
        if len(values) < 2:
            raise BadShapeError(f"a table needs order >= 1, got {len(values)} values")
        super().__init__(values)

    @property
    def order(self) -> int:
        return len(self.values) - 1


class ExchangeableJoint(Record):
    """Joint distribution of N exchangeable binary events.

    ``mass[m]`` is the probability that exactly m events occur, the total
    of the C(N, m) outcome patterns with m ones, which share it equally;
    N is ``len(mass) - 1``.
    """

    _fields = ("mass",)

    def __init__(self, mass):
        mass = _numbers(mass, "mass")
        if len(mass) < 2:
            raise BadShapeError(f"a joint needs n >= 1 events, got {len(mass)} class masses")
        for q in mass:
            if not math.isfinite(q):
                raise NonFiniteError(f"class mass {q!r} is not finite")
            if q < 0.0:
                raise InvalidDistributionError(f"negative class mass {q!r}")
        total = math.fsum(mass)
        if abs(total - 1.0) > TABLE_TOL:
            raise InvalidDistributionError(f"joint mass sums to {total!r}, not 1")
        super().__init__(mass)

    @property
    def n(self) -> int:
        return len(self.mass) - 1


class Pmf(Record):
    """Count distribution on {0, ..., s_max} with an explicit tail bound.

    ``admissible`` is not an argument: it is False when some entry is not
    finite or falls below -ADMISSIBILITY_TOL, which signals that the
    producing coefficient vector does not define a probability model; the
    signed values are kept for inspection.
    ``error_estimate`` is eps * sum |p(s)| of the computed entries for the
    finite-N law (N times that is no bound at full order: see
    finite_count_pmf), the drift |1 - sum p| for the limit law, and 0 for
    a pmf read off a joint.
    """

    _fields = ("values", "tail_bound", "admissible", "error_estimate")

    def __init__(self, values, tail_bound: float = 0.0, error_estimate: float = 0.0):
        values = _numbers(values, "values")
        if not values:
            raise BadShapeError("pmf needs at least one entry")
        admissible = all(map(math.isfinite, values)) and min(values) >= -ADMISSIBILITY_TOL
        super().__init__(values, float(tail_bound), admissible, float(error_estimate))

    @classmethod
    def from_values(cls, values, tail_bound=0.0, error_estimate=0.0) -> "Pmf":
        return cls(values, tail_bound, error_estimate)

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


class CfGrid(Record):
    """Characteristic-function samples chi(u) on a grid of real arguments."""

    _fields = ("u", "chi")

    def __init__(self, u, chi):
        u = _numbers(u, "u")
        chi = _numbers(chi, "chi", complex)
        if len(u) != len(chi):
            raise BadShapeError(f"grid length {len(u)} != value count {len(chi)}")
        super().__init__(u, chi)


def correlation_coefficient(table: SymmetricTable, n: int) -> float:
    """Scaled all-ones entry N^k * G_k(1, ..., 1) of a correlation table.

    The all-ones class holds one pattern, so G_k(1, ..., 1) is values[k].
    N^k overflows a double long before C_k does, so the product is formed
    from exact integers and rounded once.
    """
    if not is_int_in(n, 1):
        raise BadShapeError(f"n must be a positive integer, got {n!r}")
    if table.order > n:
        raise OutOfRangeError(f"table order {table.order} exceeds n = {n}")
    try:
        num, den = table.values[table.order].as_integer_ratio()
        return n ** table.order * num / den
    except (OverflowError, ValueError) as exc:  # G_k or C_k is not a finite double
        raise NonFiniteError(f"C_{table.order} is not a finite double ({exc})") from exc
