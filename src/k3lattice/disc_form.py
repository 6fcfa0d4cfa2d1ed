"""Discriminant groups L^v / L with their finite quadratic forms, and the
overlattice <-> isotropic-subgroup correspondence.

The quadratic form on the discriminant group takes values in Q/2Z when the
ambient lattice is even and in Q/Z otherwise; canonical representatives
live in [0, 2) resp. [0, 1).  Group elements are integer coordinate tuples
modulo the invariant factors, each backed by a stored rational lift.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import _intlinalg as la
from .errors import CapacityError, DomainError, StructureError
from .lattice_core import QuadLattice, is_even, is_isometry

# isotropic_subgroups and forms_isomorphic enumerate the group's elements and
# raise CapacityError above this order.
MAX_GROUP_ORDER = 10_000


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """The finite quadratic form on a discriminant group.

    invariant_factors: d_1 | d_2 | ... (each > 1); the group is the product
    of Z/d_i.  generators: rational lifts of the cyclic generators, in the
    coordinates of the ambient lattice basis.  gram: ambient Gram matrix.
    modulus: 2 for an even ambient lattice, else 1.
    """

    invariant_factors: tuple
    generators: tuple
    gram: tuple
    modulus: int

    @property
    def order(self):
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def is_trivial(self):
        return not self.invariant_factors

    @property
    def q_values(self):
        """q of each invariant-factor generator, canonical in [0, modulus)."""
        return tuple(self.q(e) for e in self._generator_elements())

    def _generator_elements(self):
        k = len(self.invariant_factors)
        for i in range(k):
            yield tuple(1 if j == i else 0 for j in range(k))

    def reduce(self, x):
        if len(x) != len(self.invariant_factors):
            raise DomainError(
                f"element has {len(x)} coordinates, expected "
                f"{len(self.invariant_factors)}")
        return tuple(int(a) % d for a, d in zip(x, self.invariant_factors))

    def lift(self, x):
        """A representative of x in the dual lattice, as a rational vector
        in ambient coordinates."""
        x = self.reduce(x)
        n = len(self.gram)
        out = [Fraction(0)] * n
        for a, g in zip(x, self.generators):
            for i in range(n):
                out[i] += a * g[i]
        return tuple(out)

    def q(self, x):
        """Quadratic value of the group element x, reduced to [0, modulus)."""
        v = self.lift(x)
        val = la.vec_mat_vec(v, self.gram, v)
        return Fraction(val) % self.modulus

    def pair(self, x, y):
        """q(x+y) - q(x) - q(y), reduced to [0, modulus).  This is twice the
        lift pairing and obeys q(x + y) = q(x) + q(y) + pair(x, y)."""
        vx = self.lift(x)
        vy = self.lift(y)
        return (2 * Fraction(la.vec_mat_vec(vx, self.gram, vy))) % self.modulus

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in
                     zip(x, y, self.invariant_factors))

    def elements(self):
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def element_order(self, x):
        x = self.reduce(x)
        out = 1
        for a, d in zip(x, self.invariant_factors):
            out = lcm(out, d // gcd(a, d))
        return out


@dataclass(frozen=True)
class IsotropicSubgroup:
    """A subgroup of a discriminant group on which q vanishes."""

    form: FiniteQuadraticForm
    elements: tuple  # sorted tuples, always containing the identity

    @property
    def order(self):
        return len(self.elements)


def discriminant_group(lat):
    """The discriminant group of a lattice with its quadratic form."""
    d, _, t = la.smith_normal_form(lat.gram)
    n = lat.rank
    factors = []
    gens = []
    for i in range(n):
        di = d[i][i]
        if di > 1:
            factors.append(di)
            gens.append(tuple(Fraction(t[r][i], di) for r in range(n)))
    return FiniteQuadraticForm(
        invariant_factors=tuple(factors),
        generators=tuple(gens),
        gram=lat.gram,
        modulus=2 if is_even(lat) else 1,
    )


def disc_local_part(form, ell):
    """The ell-primary component, with the restricted quadratic form."""
    factors = []
    gens = []
    for d, g in zip(form.invariant_factors, form.generators):
        e = 1
        while d % ell == 0:
            d //= ell
            e *= ell
        if e > 1:
            # d is now the prime-to-ell cofactor; d*g generates the
            # ell-primary part of this cyclic factor.
            factors.append(e)
            gens.append(tuple(d * x for x in g))
    return FiniteQuadraticForm(
        invariant_factors=tuple(factors),
        generators=tuple(gens),
        gram=form.gram,
        modulus=form.modulus,
    )


def _generated_subgroup(form, gens):
    seen = {form.reduce((0,) * len(form.invariant_factors))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = form.add(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def isotropic_subgroups(form):
    """All subgroups on which q vanishes, in a canonical order.

    Ordered by (order, sorted element tuples); always includes the trivial
    subgroup.  Raises CapacityError when the group is larger than
    ``MAX_GROUP_ORDER``.
    """
    if form.order > MAX_GROUP_ORDER:
        raise CapacityError(
            f"group of order {form.order} exceeds bound {MAX_GROUP_ORDER}")
    zero = (0,) * len(form.invariant_factors)
    isotropic = [x for x in form.elements() if form.q(x) == 0]
    iso_set = set(isotropic)

    found = {frozenset({zero})}
    frontier = [frozenset({zero})]
    while frontier:
        nxt = []
        for h in frontier:
            for x in isotropic:
                if x in h:
                    continue
                extended = _generated_subgroup(form, list(h) + [x])
                if not extended <= iso_set:
                    continue
                fs = frozenset(extended)
                if fs not in found:
                    found.add(fs)
                    nxt.append(fs)
        frontier = nxt
    out = [IsotropicSubgroup(form, tuple(sorted(h))) for h in found]
    out.sort(key=lambda s: (s.order, s.elements))
    return out


def overlattice_basis(lat, sub):
    """Rational basis rows (in lattice coordinates) of the overlattice
    generated by the lattice and lifts of the given isotropic subgroup."""
    form = sub.form
    n = lat.rank
    for x in sub.elements:
        if form.q(x) != 0:
            raise StructureError("subgroup is not isotropic")
    lifts = [form.lift(x) for x in sub.elements]
    denom = 1
    for v in lifts:
        for x in v:
            denom = lcm(denom, x.denominator)
    rows = [[denom if i == j else 0 for j in range(n)] for i in range(n)]
    for v in lifts:
        rows.append([int(x * denom) for x in v])
    basis = la.row_lattice_basis(rows, n)
    return [[Fraction(x, denom) for x in row] for row in basis]


def overlattice_from_isotropic(lat, sub):
    """The integral overlattice generated by the lattice and lifts of an
    isotropic subgroup of its discriminant form.

    The result satisfies |det| = |det(lat)| / order^2 and is even whenever
    the input is.
    """
    bq = overlattice_basis(lat, sub)
    g = [[la.vec_mat_vec(bi, lat.gram, bj) for bj in bq] for bi in bq]
    for row in g:
        for x in row:
            if x.denominator != 1:
                raise StructureError("glued lattice is not integral")
    out = QuadLattice([[int(x) for x in row] for row in g])
    assert abs(out.det) * sub.order ** 2 == abs(lat.det)
    if is_even(lat):
        assert is_even(out)
    return out


def acts_trivially_on_disc(lat, g, m):
    """True iff the isometry g induces the identity on the discriminant
    group.  ``m`` must satisfy m * L^v <= L (it kills the discriminant);
    this is the modulus for which congruence implies triviality."""
    g = [list(map(int, row)) for row in g]
    if not is_isometry(lat, g):
        raise StructureError("g is not an isometry of the lattice")
    m = int(m)
    if m < 1:
        raise DomainError("m must be positive")
    ginv = la.rational_inverse(lat.gram)
    if any((m * x).denominator != 1 for row in ginv for x in row):
        raise DomainError("m does not satisfy m * dual <= lattice")
    form = discriminant_group(lat)
    for gen in form.generators:
        moved = la.mat_vec(g, list(gen))
        if any((a - b).denominator != 1 for a, b in zip(moved, gen)):
            return False
    return True


def forms_isomorphic(f1, f2):
    """Brute-force isomorphism test for finite quadratic forms of order at
    most ``MAX_GROUP_ORDER``.

    Searches for a group isomorphism matching q and the associated pairing
    on generators, then verifies q on every element.
    """
    if f1.invariant_factors != f2.invariant_factors:
        return False
    if f1.modulus != f2.modulus:
        return False
    if f1.order > MAX_GROUP_ORDER:
        raise CapacityError(
            f"group of order {f1.order} exceeds bound {MAX_GROUP_ORDER}")
    if f1.is_trivial:
        return True

    # (order, q) multisets are isomorphism invariants; cheap rejection.
    profile1 = sorted((f1.element_order(x), f1.q(x)) for x in f1.elements())
    profile2 = sorted((f2.element_order(x), f2.q(x)) for x in f2.elements())
    if profile1 != profile2:
        return False

    factors = f1.invariant_factors
    k = len(factors)
    gens1 = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    q1 = [f1.q(g) for g in gens1]
    pair1 = [[f1.pair(gens1[i], gens1[j]) for j in range(k)] for i in range(k)]
    all2 = list(f2.elements())

    def combine(x, images):
        return tuple(sum(a * img[j] for a, img in zip(x, images)) % d
                     for j, d in enumerate(factors))

    def extend(images):
        i = len(images)
        if i == k:
            return all(f2.q(combine(x, images)) == f1.q(x)
                       for x in f1.elements())
        expected = 1
        for j in range(i + 1):
            expected *= factors[j]
        for y in all2:
            if factors[i] % f2.element_order(y) != 0:
                continue
            if f2.q(y) != q1[i]:
                continue
            if any(f2.pair(images[j], y) != pair1[j][i] for j in range(i)):
                continue
            if len(_generated_subgroup(f2, list(images) + [y])) != expected:
                continue
            if extend(images + [y]):
                return True
        return False

    return extend([])
