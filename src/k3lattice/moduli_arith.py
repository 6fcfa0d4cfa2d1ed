"""Arithmetic gadgets attached to moduli of sheaves and cubic fourfolds:
the algebraic Mukai lattice, the primitive cohomology lattice of a cubic
fourfold, Newton polygons and the supersingularity test, and the
Frobenius-pairing compatibility check for K3 crystals over the prime field.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import _intlinalg as la
from .bb_form import degree_to_bb, perfect_matchings
from .errors import DomainError, InconsistencyError
from .lattice_core import (QuadLattice, _freeze_gram, as_vector, direct_sum,
                           make_E8, make_U, orthogonal_complement)
from .prime_density import _val, check_prime


@dataclass(frozen=True)
class MukaiVector:
    """An element (r, c1, s) of Z + NS + Z."""

    r: int
    c1: tuple
    s: int

    def __post_init__(self):
        object.__setattr__(self, "c1", as_vector(self.c1))


def mukai_pairing(v, w, ns):
    """<(a,b,c), (a',b',c')> = b.b' - a c' - a' c, with b.b' in NS."""
    b = as_vector(v.c1, ns.rank)
    bp = as_vector(w.c1, ns.rank)
    return la.vec_mat_vec(b, ns.gram, bp) - v.r * w.s - w.r * v.s


def mukai_lattice(ns):
    """The algebraic Mukai lattice Z + NS + Z with basis order
    (rank class, NS block, point class).

    The rank/point plane is glued in as a sign-reversed hyperbolic plane,
    so that the Hilbert-scheme vector (1, 0, 1-n) has positive square
    2n - 2 for n >= 2.
    """
    n = ns.rank
    g = [[0] * (n + 2) for _ in range(n + 2)]
    g[0][n + 1] = g[n + 1][0] = -1
    for i in range(n):
        for j in range(n):
            g[1 + i][1 + j] = ns.gram[i][j]
    return QuadLattice(g)


def mukai_vector_embed(v, ns):
    """Coordinates of a Mukai vector in the mukai_lattice basis."""
    return (v.r,) + as_vector(v.c1, ns.rank) + (v.s,)


@dataclass(frozen=True)
class MukaiDiscReport:
    """Comparison of p-primary discriminant orders of v-perp in the Mukai
    lattice against the input NS lattice."""

    prime: int
    v_square: int
    perp_rank: int
    perp_det: int
    ns_det: int
    perp_p_exponent: int
    ns_p_exponent: int
    orders_match: bool
    bound_p20_applies: bool
    bound_p20_ok: bool


def mukai_perp_disc_check(v, ns, p):
    """Check that the p-part of disc(v-perp) matches the p-part of disc(NS)
    when p does not divide v^2.

    Also surfaces the p^20 bound on |disc(v-perp)_p| for rank-24 Mukai
    lattices.  A mismatch would contradict the underlying theory and raises
    InconsistencyError.
    """
    check_prime(p)
    vsq = mukai_pairing(v, v, ns)
    if vsq % p == 0:
        raise DomainError("the comparison requires p not dividing v^2")
    big = mukai_lattice(ns)
    vec = mukai_vector_embed(v, ns)
    perp, _ = orthogonal_complement(big, vec)
    pe = _val(perp.det, p)
    ne = _val(ns.det, p)
    match = pe == ne
    applies = big.rank == 24
    ok = (pe <= 20) if applies else True
    if not match:
        raise InconsistencyError(
            f"disc order mismatch at p={p}: p^{pe} vs p^{ne}")
    return MukaiDiscReport(
        prime=p,
        v_square=vsq,
        perp_rank=perp.rank,
        perp_det=perp.det,
        ns_det=ns.det,
        perp_p_exponent=pe,
        ns_p_exponent=ne,
        orders_match=match,
        bound_p20_applies=applies,
        bound_p20_ok=ok,
    )


def cubic_primitive_lattice():
    """The rank-22 primitive middle-cohomology lattice of a cubic fourfold
    in the period-domain sign convention (signature (2, 20)): two
    hyperbolic planes, two copies of the negative definite E8, and the
    negated hexagonal rank-2 form [[-2,-1],[-1,-2]]."""
    return direct_sum(make_U(), make_U(), make_E8(), make_E8(),
                      QuadLattice(((-2, -1), (-1, -2))))


def fermat_transcendental_lattice():
    """Transcendental lattice of the Fermat cubic fourfold over C."""
    return QuadLattice(((-6, -3), (-3, -6)))


class AbelJacobiConstants(NamedTuple):
    """Degrees relating a cubic fourfold to its variety of lines: the cube
    hyperplane degree h^4, the Pluecker polarization's quadratic norm, and
    its top self-intersection g^4."""

    h4: int
    g_norm: int
    g4: int


def abel_jacobi_constants():
    """The frozen degree bookkeeping (h^4, q(g), g^4) = (3, 6, 108), with
    the consistency identities rechecked on every call."""
    c = AbelJacobiConstants(h4=3, g_norm=6, g4=108)
    assert perfect_matchings(2) * c.g_norm ** 2 == c.g4
    assert degree_to_bb(c.g4, 2).root == c.g_norm
    return c


@dataclass(frozen=True)
class NewtonPolygon:
    """Root valuations of a p-adic polynomial with multiplicities,
    ascending."""

    prime: int
    slopes: tuple  # ((Fraction slope, multiplicity), ...)

    @property
    def degree(self):
        return sum(m for _, m in self.slopes)

    @property
    def is_isoclinic(self):
        return len(self.slopes) == 1


def newton_polygon(coeffs, p):
    """Newton polygon of a polynomial from its coefficients (ascending).

    Slopes are the p-adic valuations of the roots, i.e. the negated slopes
    of the lower convex hull of (i, v_p(a_i)).  The constant term must be
    nonzero (a zero root has no finite valuation) and the leading
    coefficient must be nonzero.
    """
    coeffs = as_vector(coeffs)
    if not coeffs or all(c == 0 for c in coeffs):
        raise DomainError("polynomial must be nonzero")
    if coeffs[-1] == 0:
        raise DomainError("leading coefficient must be nonzero")
    if coeffs[0] == 0:
        raise DomainError("zero constant term: polygon has an infinite "
                          "slope, which is rejected")
    check_prime(p)
    pts = [(i, _val(c, p)) for i, c in enumerate(coeffs) if c != 0]
    hull = _lower_hull(pts)
    # hull slopes strictly increase, so the root valuations (their
    # negatives) ascend along the hull read backwards
    edges = list(zip(hull, hull[1:]))[::-1]
    out = NewtonPolygon(prime=p, slopes=tuple(
        (-Fraction(y1 - y0, x1 - x0), x1 - x0)
        for (x0, y0), (x1, y1) in edges))
    assert out.degree == len(coeffs) - 1
    return out


def _lower_hull(pts):
    """Vertices of the lower convex hull of points sorted by x; collinear
    points are dropped, so the edge slopes strictly increase."""
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the new chord
            if (y1 - y0) * (pt[0] - x0) >= (pt[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def is_supersingular_newton(polygon, weight):
    """True iff the polygon is a straight line of slope weight/2."""
    if weight < 1:
        raise DomainError("weight must be positive")
    return (polygon.is_isoclinic
            and polygon.slopes[0][0] == Fraction(weight, 2))


@dataclass(frozen=True)
class FrobeniusPairingInstance:
    """A Frobenius matrix and a pairing over the p-adic integers with the
    base field of p elements (so the Frobenius twist on scalars is
    trivial)."""

    frobenius: tuple
    gram: tuple
    prime: int

    def __post_init__(self):
        check_prime(self.prime)
        f = tuple(as_vector(row) for row in self.frobenius)
        g = _freeze_gram(self.gram)
        if not g:
            raise DomainError("pairing must be non-empty")
        la.check_symmetric(g, DomainError, "pairing")
        if len(f) != len(g) or any(len(row) != len(g) for row in f):
            raise DomainError("frobenius must have the pairing's size")
        if la.det(g) == 0:
            raise DomainError("pairing must be nondegenerate")
        object.__setattr__(self, "frobenius", f)
        object.__setattr__(self, "gram", g)


def check_k3_crystal_pairing(inst):
    """True iff F^T G F = p^2 G: the Frobenius scales the pairing by p^2."""
    lhs = la.congruence(inst.frobenius, inst.gram)
    rhs = [[inst.prime ** 2 * x for x in row] for row in inst.gram]
    return lhs == rhs


def hilbert_scheme_vector(n, ns):
    """The Mukai vector (1, 0, 1-n) of the length-n Hilbert scheme."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return MukaiVector(r=1, c1=(0,) * ns.rank, s=1 - n)
