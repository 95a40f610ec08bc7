"""Rational intersection lattices of hyperbolic signature and their classes.

An :class:`IntersectionLattice` is a rank-r symmetric rational pairing
expected to have signature (1, r-1); a :class:`DivClass` is a coordinate
vector in the chosen basis.  Matrix entries and coordinates are exact
rationals: ints or Fractions, held as Fractions, so every pairing is a
Fraction.  Anything else, a QuadNum included, is refused with one BadParams
line.  Lattices are user data: nothing here derives them from geometry.
Both types are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BadParams, BadSignature, DimensionMismatch
from .exactnum import RatLike, format_rat


def _exact(x: object, what: str) -> Fraction:
    """x as a Fraction if it is an int (not a bool) or a Fraction; else one BadParams line."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise BadParams(f"{what} must be int or Fraction, got {x!r}")


@dataclass(frozen=True)
class DivClass:
    """A (1,1)-class as a coordinate vector of Fractions; ints are taken as Fractions."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Sequence[RatLike]):
        object.__setattr__(self, "coords", tuple(_exact(c, "class coordinates") for c in coords))

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

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def __repr__(self) -> str:
        return "(" + ", ".join(map(format_rat, self.coords)) + ")"


class IntersectionLattice:
    """Symmetric rational pairing on coordinate vectors of fixed rank."""

    __slots__ = ("rank", "matrix", "labels")

    def __init__(self, matrix: Sequence[Sequence[RatLike]],
                 labels: Sequence[str] | None = None):
        rows = [tuple(_exact(x, "lattice entries") for x in row) for row in matrix]
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DimensionMismatch("pairing matrix must be square and non-empty")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise BadSignature(f"matrix not symmetric at ({i},{j})")
        if labels is None:
            labels = tuple(f"b{i}" for i in range(n))
        elif len(labels) != n:
            raise DimensionMismatch("one basis label per row required")
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "matrix", tuple(rows))
        object.__setattr__(self, "labels", tuple(labels))

    def __setattr__(self, name, value):  # immutable after __init__
        raise AttributeError("IntersectionLattice is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return IntersectionLattice, (self.matrix, self.labels)

    def check_class(self, x: DivClass) -> None:
        if len(x) != self.rank:
            raise DimensionMismatch(f"class of length {len(x)} in rank {self.rank}")

    def pair(self, x: DivClass, y: DivClass) -> Fraction:
        """Exact bilinear pairing x^T M y, a Fraction."""
        self.check_class(x)
        self.check_class(y)
        total = Fraction(0)
        for i, xi in enumerate(x.coords):
            if xi == 0:
                continue
            row = self.matrix[i]
            inner = Fraction(0)
            for j, yj in enumerate(y.coords):
                if yj != 0 and row[j] != 0:
                    inner = inner + row[j] * yj
            total = total + xi * inner
        return total

    def self_int(self, x: DivClass) -> Fraction:
        return self.pair(x, x)

    def signature(self) -> tuple[int, int, int]:
        """Inertia (positive, negative, zero) by congruence diagonalization."""
        n = self.rank
        m = [list(row) for row in self.matrix]

        def swap(i: int, j: int) -> None:
            m[i], m[j] = m[j], m[i]
            for row in m:
                row[i], row[j] = row[j], row[i]

        def add_row_col(i: int, j: int) -> None:
            # row_i += row_j, col_i += col_j; keeps symmetry
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]

        pos = neg = 0
        for k in range(n):
            if m[k][k] == 0:
                pivot = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
                if pivot is not None:
                    swap(k, pivot)
                else:
                    off = next(((i, j) for i in range(k, n)
                                for j in range(i + 1, n) if m[i][j] != 0), None)
                    if off is None:
                        break  # remaining block is identically zero
                    i, j = off
                    add_row_col(i, j)  # makes m[i][i] = 2*m[i][j] != 0
                    if i != k:
                        swap(k, i)
            p = m[k][k]
            if p > 0:
                pos += 1
            else:
                neg += 1
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    f = m[i][k] / p
                    for j in range(k, n):
                        m[i][j] -= f * m[k][j]
                    for j in range(k, n):
                        m[j][i] -= f * m[j][k]
        return pos, neg, n - pos - neg

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntersectionLattice):
            return NotImplemented
        return self.matrix == other.matrix and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.matrix, self.labels))

    def __repr__(self) -> str:
        return f"IntersectionLattice(rank={self.rank}, labels={list(self.labels)})"


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
