"""Exact scalar arithmetic: rationals, real quadratic irrationals, roots of quadratics.

Rationals are plain :class:`fractions.Fraction`.  A
:class:`QuadNum` is a real number ``a + b*sqrt(d)`` with rational ``a, b``
and a reduced integer radicand ``d >= 0``: 0 for a rational, else not a
square and free of the square of every prime up to MAX_TRIAL_DIVISOR, so
square-free below 10^18.  Its ordering is the ordering of the real numbers
it denotes, decided exactly by integer arithmetic.
Within one computation at most one irrational radicand ever occurs, so
arithmetic between two distinct radicands is rejected rather than widened.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import isqrt, lcm
from typing import Callable, Sequence, Union

from .errors import BadParams, MixedRadicands, ZeroPolynomial

RatLike = Union[int, Fraction]
Scalar = Union[int, Fraction, "QuadNum"]

# largest decimal_str precision: one irrational value takes about 0.07 ms at
# 10^3 digits, 4 ms at 10^4 and 0.35 s at 10^5 (Intel Xeon, Python 3.11.7),
# though past 4300 digits str() refuses the mantissa unless Python's
# int-string limit is raised
MAX_DECIMAL_DIGITS = 1000
DEFAULT_DIGITS = 12  # decimal_str's precision; the CLI's unless JTHRESH_DECIMAL_DIGITS is set

# largest trial divisor of squarefree_decompose, which leaves the rest in d: reaching
# it takes about 0.1 s (0.08-0.16 s, Intel Xeon, Python 3.11), linearly in the cap
MAX_TRIAL_DIVISOR = 10**6


# Fraction's decimal grammar with an exponent: '1e3000000' would expand to a
# million-digit integer, so such strings are refused before Fraction sees them
_EXPONENT_FORM = re.compile(r"[-+]?(?=\d|\.\d)(\d+(_\d+)*)?(\.(\d+(_\d+)*)?)?"
                            r"e[-+]?\d+(_\d+)*", re.IGNORECASE)
# 'p' or 'p/q' in ASCII digits with q != 0: two ints, no regex of Fraction's own
_PLAIN_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")
_ZERO = Fraction(0)  # QuadNum's default irrational part: no exactness gate to pass


def exact(x: object, what: str) -> Fraction:
    """x as a Fraction if it is an int (not a bool) or a Fraction; else one BadParams line."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise BadParams(f"{what} must be int or Fraction, got {shown(x, repr)}")


def exact_int(value: object, what: str) -> int:
    """value if it is an int; a bool, float or string raises BadParams, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadParams(f"{what} must be an integer, got {shown(value, repr)}")
    return value


def shown(value: object, text: Callable[[object], str] = str) -> str:
    """text(value), or its size in words where it holds an int past Python's int-string limit."""
    try:
        return text(value)
    except ValueError:  # str and repr refuse an int of more than 4300 digits, even in a Fraction
        if not isinstance(value, (int, Fraction)):
            return f"a {type(value).__name__} holding an integer too long to print"
        num, den = Fraction(value).as_integer_ratio()
        return (f"{'a negative' if num < 0 else 'an' if den == 1 else 'a'} "
                + (f"integer of {num.bit_length()} bits" if den == 1 else
                   f"rational of {num.bit_length()} bits over {den.bit_length()} bits"))


def int_between(value: object, what: str, lo: int, hi: int) -> int:
    """value if it is an int from lo to hi, the one range gate of every count and digits;
    a non-int raises exact_int's BadParams line, an int out of range this one."""
    if not lo <= exact_int(value, what) <= hi:
        raise BadParams(f"{what} must be between {lo} and {hi}, got {shown(value)}")
    return value


def rat(value: RatLike | str) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to a Fraction.

    A malformed string, exponent notation, a zero denominator or any other type
    (a bool or a float among them) raises one BadParams line.
    """
    if isinstance(value, str):  # first: a str fails Fraction's ABC check slowly
        plain, text = _PLAIN_RATIONAL.fullmatch(value), value.strip()
        if not plain and _EXPONENT_FORM.fullmatch(text):
            raise BadParams(f"bad rational {value!r}: exponent notation is not accepted")
        try:  # past 4300 digits int() raises Fraction(text)'s ValueError
            return Fraction(int(plain[1]), int(plain[2] or 1)) if plain else Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParams(f"bad rational {value!r}: {exc}") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise BadParams(f"expected an exact rational (int, Fraction or 'p/q' string), got {value!r}")


def format_rat(value: Fraction) -> str:
    """Render as 'p/q', omitting the denominator when it is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 0 as s*s*d with d reduced (0, 1 or not a square); returns (s, d).

    Trial division takes each p out of the unfactored part m completely and
    stops once m is a square, p^3 > m or p > MAX_TRIAL_DIVISOR.  At p^3 > m,
    m has at most two prime factors, all >= p, so it is square-free unless it
    is a square: at most about n^(1/3)/2 divisions, and far fewer when m
    becomes a square early.  Past MAX_TRIAL_DIVISOR an m that is not a square
    (so at least that cap cubed) stays in d undecided: d is then not a square,
    but may hold the square of a prime past the cap.
    """
    if n < 0:
        raise ValueError("radicand must be non-negative")
    if n == 0:
        return 0, 0
    s, d, m, p, r = 1, 1, n, 2, isqrt(n)
    while r * r != m and p * p * p <= m and p <= MAX_TRIAL_DIVISOR:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            d *= p ** (e % 2)
            r = isqrt(m)
        p += 1 if p == 2 else 2
    if r * r == m:
        return s * r, d
    return s, d * m


def rat_sqrt(x: Fraction) -> "QuadNum":
    """Exact square root of a non-negative rational p/q as a QuadNum: sqrt(p*q)/q."""
    if x < 0:
        raise ValueError("square root of a negative rational")
    return quad_ratio(0, *squarefree_decompose(x.numerator * x.denominator), x.denominator)


def quad_ratio(t: int, r: int, d: int, w: int) -> "QuadNum":
    """(t + r*sqrt(d))/w for ints, w != 0 and d >= 0 reduced; d = 0 or 1 is rational."""
    if d <= 1:
        return QuadNum(Fraction(t + r * d, w))
    return QuadNum._of(Fraction(t, w), Fraction(r, w), d)


def scale_to_integers(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(L, [v*L for v in values]) for L the least common denominator of values."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _sign(a: RatLike, b: RatLike, d: int) -> int:
    """Sign of a + b*sqrt(d) for an integer d > 0, in {-1, 0, +1}, exactly.

    a and b are ints or Fractions; on ints it is integer arithmetic only.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 against b^2 d
    lhs, rhs = a * a, b * b * d
    if a > 0:  # b < 0
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


class QuadNum:
    """Real number a + b*sqrt(d), d >= 0 reduced (see the module), with exact ordering.

    Perfect-square radicands are folded into the rational part eagerly, so
    rational values always have b == 0 and d == 0.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RatLike = 0, b: RatLike = _ZERO, d: int = 0):
        if not isinstance(a, Fraction):
            a = exact(a, "QuadNum parts")
        if not isinstance(b, Fraction):
            b = exact(b, "QuadNum parts")
        if exact_int(d, "radicand") < 0:
            raise BadParams(f"radicand must be non-negative, got {shown(d)}")
        if b == 0:
            d = 0
        else:
            s, d = squarefree_decompose(d)
            if s != 1:
                b *= s
            if d in (0, 1):
                a += b * (1 if d else 0)
                b, d = Fraction(0), 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _of(cls, a: Fraction, b: Fraction, d: int) -> "QuadNum":
        """a + b*sqrt(d) for a d already reduced (an operand's): nothing to factor."""
        q = object.__new__(cls)
        object.__setattr__(q, "a", a)
        object.__setattr__(q, "b", b)
        object.__setattr__(q, "d", d if b else 0)
        return q

    def __setattr__(self, name, value):  # immutable after __init__
        raise AttributeError("QuadNum is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return QuadNum, (self.a, self.b, self.d)

    # -- predicates ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        """Sign of the real number, in {-1, 0, +1}, computed exactly."""
        return _sign(self.a, self.b, self.d)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(value: Scalar) -> "QuadNum":
        if isinstance(value, QuadNum):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadNum(value)
        return NotImplemented  # type: ignore[return-value]

    def _join_radicand(self, other: "QuadNum") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise MixedRadicands(f"sqrt({self.d}) with sqrt({other.d})")
        return self.d

    def __add__(self, other: Scalar) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum._of(self.a + o.a, self.b + o.b, self._join_radicand(o))

    __radd__ = __add__

    def __neg__(self) -> "QuadNum":
        return QuadNum._of(-self.a, -self.b, self.d)

    def __sub__(self, other: Scalar) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Scalar) -> "QuadNum":
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o - self

    def __mul__(self, other: Scalar) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join_radicand(o)
        return QuadNum._of(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.b == 0:
            if not o.a:
                raise ZeroDivisionError("division by zero QuadNum")
            return QuadNum._of(self.a / o.a, self.b / o.a, self.d)
        # never zero, since d > 1 is not a square; multiply by the conjugate, norm a^2 - b^2 d != 0
        norm = o.a * o.a - o.b * o.b * o.d
        conj = QuadNum._of(o.a, -o.b, o.d)
        return (self * conj) / QuadNum(norm)

    def __rtruediv__(self, other: Scalar) -> "QuadNum":
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o / self

    # -- comparisons (total order of the denoted reals) -------------------

    def _cmp(self, other: Scalar) -> int:
        """Sign of self - other, without building the difference."""
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare QuadNum with {type(other).__name__}")
        return _sign(self.a - o.a, self.b - o.b, self._join_radicand(o))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (QuadNum, int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other: Scalar) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: Scalar) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Scalar) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Scalar) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        if self.b == 0:
            return format_rat(self.a)
        tail = f"sqrt({self.d})" if abs(self.b) == 1 else f"{format_rat(abs(self.b))}*sqrt({self.d})"
        if self.a == 0:
            return tail if self.b > 0 else f"-{tail}"
        op = "+" if self.b > 0 else "-"
        return f"{format_rat(self.a)} {op} {tail}"


def poly_roots_quadratic(coeffs: Sequence[RatLike]) -> list[QuadNum]:
    """All real roots of a polynomial of degree <= 2, increasing, exact.

    coeffs are rationals, lowest degree first; trailing zeros are dropped.
    Both roots of a genuine quadratic share one radicand (the discriminant,
    reduced).  Negative discriminant gives [].
    """
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ZeroPolynomial("no roots of the zero polynomial")
    if len(cs) > 3:
        raise ValueError(f"degree {len(cs) - 1} > 2")
    if len(cs) == 1:
        return []
    if len(cs) == 2:
        return [QuadNum(-cs[0] / cs[1])]
    c, b, a = cs
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        return [QuadNum(-b / (2 * a))]
    root = rat_sqrt(disc)
    center = QuadNum(-b / (2 * a))
    half = root / (2 * a)
    lo, hi = center - half, center + half
    return [lo, hi] if lo < hi else [hi, lo]


@cache
def _pow10(n: int) -> int:
    """10^n for a digit count n, so at most MAX_DECIMAL_DIGITS + 1 of them are kept."""
    return 10 ** n


def _exponent(bits: int) -> int:
    """floor(bits * log10(2)) to within one, in integers: a decade estimate from bit lengths."""
    return bits * 30103 // 100000


def _sci(negative: bool, m: int, e: int, digits: int) -> str:
    """m * 10^(e - digits + 1), m of exactly digits digits, as Decimal.__str__ prints it."""
    text = str(m)
    # plain notation when the last digit is at or right of the point and the
    # value is at least 10^-6, else one digit before the point and an exponent
    point = e + 1 if -6 <= e < digits else 1
    if point <= 0:
        text = "0." + "0" * -point + text
    elif point < digits:
        text = text[:point] + "." + text[point:]
    if point != e + 1:
        text += f"E{e:+d}"
    return "-" + text if negative else text


def _carry(m: int, e: int, digits: int) -> tuple[int, int]:
    """A rounded-up mantissa of 10^digits is 10^(digits-1) at the next exponent."""
    return (m // 10, e + 1) if m == _pow10(digits) else (m, e)


def _decimal_ratio(p: int, q: int, digits: int) -> str:  # digits checked by the caller
    """p/q for integers p and q > 0 to digits significant digits, correctly rounded,
    ties to even, in integers only: what decimal_str prints for Fraction(p, q)."""
    if not p:
        return "0"
    n = -p if p < 0 else p
    # n/q * 10^-e in [1, 10): n/d after correcting the estimate once each way
    e = _exponent(n.bit_length() - q.bit_length())
    n, d = (n * 10 ** -e, q) if e <= 0 else (n, q * 10 ** e)
    while n < d:
        n, e = n * 10, e - 1
    while n >= 10 * d:
        d, e = d * 10, e + 1
    m, r = divmod(n * _pow10(digits - 1), d)
    r += r
    if r > d or (r == d and m & 1):
        m, e = _carry(m + 1, e, digits)
    return _sci(p < 0, m, e, digits)


def _floor_times_root(c: int, d: int) -> int:
    """floor(c * sqrt(d)) for an integer c and a d that is not a square."""
    r = isqrt(c * c * d)
    return r if c >= 0 else -r - 1


def _decimal_quad(a: int, b: int, d: int, q: int, digits: int) -> str:
    """(a + b*sqrt(d))/q for integers, b != 0, q > 0 and d > 1 not a square, rounded
    as _decimal_ratio rounds; the value is irrational, so never a tie."""
    negative = _sign(a, b, d) < 0
    if negative:
        a, b = -a, -b
    if a >= 0 and b >= 0:
        bits = (a + isqrt(b * b * d)).bit_length() - q.bit_length()
    else:  # a + b*sqrt(d) cancels: its conjugate a - b*sqrt(d) does not
        bits = ((a * a - b * b * d).bit_length() - q.bit_length()
                - (abs(a) + isqrt(b * b * d)).bit_length())
    e = _exponent(bits)
    # (a + b*sqrt(d))/q * 10^-e in [1, 10), decided exactly by _sign
    a, b, q = (a * 10 ** -e, b * 10 ** -e, q) if e <= 0 else (a, b, q * 10 ** e)
    while _sign(a - q, b, d) < 0:
        a, b, e = a * 10, b * 10, e - 1
    while _sign(a - 10 * q, b, d) >= 0:
        q, e = q * 10, e + 1
    # m = floor(value * 10^(digits-1) + 1/2) from twice = floor(2 * value * 10^(digits-1))
    scale = 2 * _pow10(digits - 1)
    twice = (a * scale + _floor_times_root(b * scale, d)) // q
    m, e = _carry((twice + 1) >> 1, e, digits)
    return _sci(negative, m, e, digits)


def decimal_str(x: Scalar, digits: int = DEFAULT_DIGITS) -> str:
    """Render an int, Fraction or QuadNum to a fixed number of significant decimal digits.

    Display-only: correctly rounded, ties to even, in integer arithmetic;
    deterministic across platforms.  Exact zero renders as "0", anything
    else in Decimal.__str__'s form with exactly digits digits.  digits must be an
    int from 1 to MAX_DECIMAL_DIGITS (``int_between``), else BadParams.
    """
    int_between(digits, "digits", 1, MAX_DECIMAL_DIGITS)
    if isinstance(x, QuadNum):
        if x.b:
            q, (a, b) = scale_to_integers((x.a, x.b))
            return _decimal_quad(a, b, x.d, q, digits)
        x = x.a
    return _decimal_ratio(x.numerator, x.denominator, digits)  # an int is x/1
