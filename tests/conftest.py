"""Shared random-instance generators for the property and acceptance tests.

Instances are drawn from seeded PRNGs so every run is deterministic.  A
"validated instance" is a lattice of signature (1, r-1) together with a
cone model that provably contains interior classes; half the instances are
expressed in a sheared integer basis so the signature routine sees
non-diagonal matrices.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from jthresh import (DivClass, IntersectionLattice, LightConeFacet,
                     NefConeModel, diagonal_lattice, is_kahler,
                     validate_signature)
from jthresh.toric import _unimodular_dual


def rnd_fraction(rng: Random, lo: int = -6, hi: int = 6, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def unimodular_shear(rng: Random, n: int, steps: int = 4) -> list[list[int]]:
    """Random integer matrix of determinant +-1 built from elementary ops."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        m[i], m[j] = m[j], m[i]
    return m


def _mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)]
            for i in range(n)]


def _transpose(a):
    return [list(col) for col in zip(*a)]


class Instance:
    """A validated lattice + cone with a guaranteed interior direction.

    ``to_coords`` maps coordinate vectors from the underlying diagonal
    model into the instance's (possibly sheared) basis.
    """

    def __init__(self, lattice: IntersectionLattice, cone: NefConeModel,
                 diag: list[Fraction], to_coords):
        self.lattice = lattice
        self.cone = cone
        self.diag = diag
        self.to_coords = to_coords
        self.center = to_coords([Fraction(1)] + [Fraction(0)] * (lattice.rank - 1))


def random_instance(rng: Random, rank: int | None = None,
                    light_cone: bool | None = None,
                    sheared: bool | None = None) -> Instance:
    rank = rank if rank is not None else rng.randint(2, 4)
    light = light_cone if light_cone is not None else rng.random() < 0.5
    shear = sheared if sheared is not None else rng.random() < 0.5

    diag = [Fraction(1)] + [Fraction(-rng.randint(1, 5)) for _ in range(rank - 1)]
    n_facets = 0 if (light and rng.random() < 0.4) else rng.randint(1, 3)
    covectors = [[Fraction(1)] + [rnd_fraction(rng, -1, 1, 3) for _ in range(rank - 1)]
                 for _ in range(n_facets)]
    # facet class f solves M f = covector; M is diagonal in the base model
    facets_diag = [[c / d for c, d in zip(cov, diag)] for cov in covectors]

    if shear:
        shear_rows = unimodular_shear(rng, rank)
        basis = [[Fraction(x) for x in row] for row in _transpose(shear_rows)]
        inverse = _unimodular_dual(shear_rows)  # rows of basis^-1
        diag_m = [[diag[i] if i == j else Fraction(0) for j in range(rank)]
                  for i in range(rank)]
        gram = _mat_mul(_transpose(basis), _mat_mul(diag_m, basis))
        lattice = IntersectionLattice(gram)

        def to_coords(v):
            return DivClass([sum(a * x for a, x in zip(row, v)) for row in inverse])
    else:
        lattice = diagonal_lattice(diag)

        def to_coords(v):
            return DivClass(v)

    validate_signature(lattice)
    facets = [to_coords(f) for f in facets_diag]
    center = to_coords([Fraction(1)] + [Fraction(0)] * (rank - 1))
    lc = LightConeFacet(reference_kahler=center) if light else None
    cone = NefConeModel(facets=facets, light_cone=lc)
    return Instance(lattice, cone, diag, to_coords)


def random_kahler(rng: Random, inst: Instance, tries: int = 60) -> DivClass:
    """A random interior class: a scaled center plus a small perturbation."""
    rank = inst.lattice.rank
    for _ in range(tries):
        eps = Fraction(1, 12)
        v = [Fraction(1)] + [eps * rnd_fraction(rng, -3, 3, 3) for _ in range(rank - 1)]
        scale = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        cand = inst.to_coords([scale * x for x in v])
        if is_kahler(inst.lattice, inst.cone, cand) and inst.lattice.self_int(cand) > 0:
            return cand
    return inst.center


def random_class(rng: Random, inst: Instance) -> DivClass:
    """An arbitrary (possibly wildly non-positive) class."""
    rank = inst.lattice.rank
    return inst.to_coords([rnd_fraction(rng, -5, 5, 4) for _ in range(rank)])
