"""Rational intersection lattices of hyperbolic signature and their classes.

An :class:`IntersectionLattice` is a rank-r symmetric rational pairing
expected to have signature (1, r-1); a :class:`DivClass` is a coordinate
vector in the chosen basis.  Matrix entries and coordinates are exact
rationals: ints or Fractions, held as Fractions.  Anything else, a QuadNum
included, is refused with one BadParams line.  Each is also kept, once, as
integers over one denominator: a lattice scales its Gram matrix when it is
built and a class its coordinates when first paired, so ``pair`` is one
integer dot product returned as a Fraction, and ``signature`` eliminates
fraction-free on the integer Gram matrix.  Lattices are user data: nothing
here derives them from geometry.  Both types are frozen dataclasses,
immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from .errors import BadParams, BadSignature, DimensionMismatch
from .exactnum import RatLike, exact, format_rat, scale_to_integers


@dataclass(frozen=True)
class DivClass:
    """A (1,1)-class as a coordinate vector of Fractions; ints are taken as Fractions."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Sequence[RatLike]):
        object.__setattr__(self, "coords", tuple(exact(c, "class coordinates") for c in coords))

    def __len__(self) -> int:
        return len(self.coords)

    def __add__(self, other: "DivClass") -> "DivClass":
        if len(self) != len(other):
            raise DimensionMismatch(f"{len(self)} vs {len(other)}")
        return DivClass([x + y for x, y in zip(self.coords, other.coords)])

    def __sub__(self, other: "DivClass") -> "DivClass":
        return self + (-other)

    def __neg__(self) -> "DivClass":
        return DivClass([-x for x in self.coords])

    def scale(self, c: RatLike) -> "DivClass":
        return DivClass([c * x for x in self.coords])

    def __rmul__(self, c: RatLike) -> "DivClass":
        return self.scale(c)

    @cached_property
    def integers(self) -> tuple[int, tuple[int, ...]]:
        """(q, n) with coords = n/q, q > 0 the least common denominator; computed once."""
        q, ints = scale_to_integers(self.coords)
        return q, tuple(ints)

    def __repr__(self) -> str:
        return "(" + ", ".join(map(format_rat, self.coords)) + ")"


@dataclass(frozen=True, init=False, repr=False)
class IntersectionLattice:
    """Symmetric rational pairing on coordinate vectors of fixed rank.

    ``matrix`` holds the entries as Fractions; the same matrix is kept as the
    integer Gram matrix ``_gram`` over one denominator ``_den`` > 0, the
    entries' least common one.  Equality and hash read rank, matrix and labels:
    b0, b1, ... by default, else a list or tuple of strs, one per row.
    """

    rank: int
    matrix: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...]
    _den: int = field(compare=False)
    _gram: tuple[tuple[int, ...], ...] = field(compare=False)

    def __init__(self, matrix: Sequence[Sequence[RatLike]],
                 labels: Sequence[str] | None = None):
        rows = [tuple(exact(x, "lattice entries") for x in row) for row in matrix]
        if labels is not None and (not isinstance(labels, (list, tuple))
                                   or not all(isinstance(s, str) for s in labels)):
            raise BadParams("lattice labels must be strings")
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DimensionMismatch("pairing matrix must be square and non-empty")
        den, ints = scale_to_integers([x for row in rows for x in row])
        gram = tuple(tuple(ints[i:i + n]) for i in range(0, n * n, n))
        for i in range(n):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise BadSignature(f"matrix not symmetric at ({i},{j})")
        if labels is None:
            labels = tuple(f"b{i}" for i in range(n))
        elif len(labels) != n:
            raise DimensionMismatch("one basis label per row required")
        init = object.__setattr__
        init(self, "rank", n)
        init(self, "matrix", tuple(rows))
        init(self, "labels", tuple(labels))
        init(self, "_den", den)
        init(self, "_gram", gram)

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return IntersectionLattice, (self.matrix, self.labels)

    def check_class(self, x: DivClass) -> None:
        if len(x) != self.rank:
            raise DimensionMismatch(f"class of length {len(x)} in rank {self.rank}")

    def pair(self, x: DivClass, y: DivClass) -> Fraction:
        """Exact bilinear pairing x^T M y, a Fraction: n_x^T G n_y over den * q_x * q_y.

        G over den is the integer Gram matrix, n_x over q_x and n_y over q_y
        the classes' integer forms; only the result is a Fraction.
        """
        self.check_class(x)
        self.check_class(y)
        qx, nx = x.integers
        qy, ny = y.integers
        total = sum(xi * sum(map(mul, row, ny)) for xi, row in zip(nx, self._gram) if xi)
        return Fraction(total, self._den * qx * qy)

    def self_int(self, x: DivClass) -> Fraction:
        return self.pair(x, x)

    def signature(self) -> tuple[int, int, int]:
        """Inertia (positive, negative, zero) by fraction-free symmetric elimination.

        Integer Bareiss on the integer Gram matrix, den > 0 times M and so of
        M's inertia: after a pivot p each trailing entry becomes
        (p*m[i][j] - m[i][k]*m[k][j]) // d, d the previous pivot (1 at first),
        and the trailing block is d times the Schur complement, so every
        division is exact and the true pivot p/d is positive when p and d
        have the same sign.  A pivot whose column is otherwise zero splits
        off: the rest of the block is left as it is and d is kept, which is
        Bareiss on the matrix without that row and column, so a diagonal or
        block-diagonal matrix costs no products.  A zero pivot is first
        replaced by a swap with a later non-zero diagonal entry, or made
        2*m[i][j] by adding row and column j to row and column i; an all-zero
        trailing block stops the elimination, and its size is the zero count.
        """
        n = self.rank
        m = [list(row) for row in self._gram]  # row and column k.. are the trailing block
        pos = neg = 0
        d = 1
        for k in range(n):
            if m[k][k] == 0:
                pivot = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
                if pivot is None:
                    off = next(((i, j) for i in range(k, n)
                                for j in range(i + 1, n) if m[i][j] != 0), None)
                    if off is None:
                        break  # the trailing block is identically zero
                    pivot, j = off
                    _add_row_col(m, pivot, j)  # makes m[pivot][pivot] = 2*m[pivot][j] != 0
                _swap(m, k, pivot)
            top = m[k]
            p = top[k]
            if (p > 0) == (d > 0):
                pos += 1
            else:
                neg += 1
            if any(m[i][k] for i in range(k + 1, n)):
                tail = top[k + 1:]
                for row in m[k + 1:]:
                    a = row[k]
                    row[k + 1:] = [(p * x - a * y) // d for x, y in zip(row[k + 1:], tail)]
                d = p
        return pos, neg, n - pos - neg

    def __repr__(self) -> str:
        return f"IntersectionLattice(rank={self.rank}, labels={list(self.labels)})"


def _swap(m: list[list[int]], i: int, j: int) -> None:
    """Exchange rows i and j and columns i and j: a congruence."""
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row_col(m: list[list[int]], i: int, j: int) -> None:
    """row_i += row_j, then col_i += col_j: a congruence, so m stays symmetric."""
    m[i] = [x + y for x, y in zip(m[i], m[j])]
    for row in m:
        row[i] += row[j]


def validate_signature(lattice: IntersectionLattice) -> None:
    """Require signature (1, rank-1); raises BadSignature otherwise.

    Mandatory whenever a lattice enters through a document or the catalog:
    the light-cone root extraction downstream relies on it.
    """
    pos, neg, zero = lattice.signature()
    if pos != 1 or zero != 0:
        raise BadSignature(f"signature ({pos},{neg},{zero}), expected (1,{lattice.rank - 1},0)")


def diagonal_lattice(entries: Sequence[RatLike],
                     labels: Sequence[str] | None = None) -> IntersectionLattice:
    """Convenience constructor for diag(entries)."""
    n = len(entries)
    rows = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return IntersectionLattice(rows, labels)
