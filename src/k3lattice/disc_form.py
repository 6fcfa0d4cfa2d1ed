"""Discriminant groups L^v / L with their finite quadratic forms, and the
overlattice <-> isotropic-subgroup correspondence.

The quadratic form on the discriminant group takes values in Q/2Z when the
ambient lattice is even and in Q/Z otherwise; canonical representatives
live in [0, 2) resp. [0, 1).  Group elements are integer coordinate tuples
modulo the invariant factors; q and pair read the k x k table of generator
pairings, and the generators' lifts, reduced modulo the lattice, serve
gluing and the action of isometries.  Both are integers over one
denominator per form; a Fraction is made only where a value leaves it.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import _intlinalg as la
from .errors import DomainError, StructureError, check_limit
from .lattice_core import QuadLattice, as_vector, is_even, is_isometry
from .prime_density import _val, check_prime

# isotropic_subgroups and forms_isomorphic enumerate the group's elements and
# raise CapacityError above this order.
MAX_GROUP_ORDER = 10_000


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """The finite quadratic form on a discriminant group.

    invariant_factors: d_1 | d_2 | ... (each > 1); the group is the product
    of Z/d_i.  generators: integer vectors c_i = e * g_i, where e is the
    exponent and g_i the reduced lift of the i-th cyclic generator in
    ambient coordinates.  table: T_ij = c_i^T G c_j = e^2 <g_i, g_j>; q
    and pair depend on a lift only modulo the lattice, so they read the
    table alone.  modulus: 2 for an even ambient lattice, else 1.
    """

    invariant_factors: tuple
    generators: tuple
    table: tuple
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
    def exponent(self):
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def q_values(self):
        """q of each invariant-factor generator, canonical in [0, modulus)."""
        return tuple(self._value(row[i]) for i, row in enumerate(self.table))

    def _value(self, n):
        """A table value n, as n / e^2 reduced to [0, modulus)."""
        e2 = self.exponent ** 2
        return Fraction(n % (self.modulus * e2), e2)

    def reduce(self, x):
        x = as_vector(x, len(self.invariant_factors))
        return tuple(a % d for a, d in zip(x, self.invariant_factors))

    def lift(self, x):
        """A representative of x in the dual lattice, as a rational vector
        in ambient coordinates (the empty tuple for a trivial form)."""
        x, e = self.reduce(x), self.exponent
        return tuple(Fraction(sum(a * c for a, c in zip(x, coords)), e)
                     for coords in zip(*self.generators))

    def q(self, x):
        """Quadratic value of the group element x, reduced to [0, modulus)."""
        x = self.reduce(x)
        return self._value(la.vec_mat_vec(x, self.table, x))

    def pair(self, x, y):
        """q(x+y) - q(x) - q(y), reduced to [0, modulus).  This is twice the
        lift pairing and obeys q(x + y) = q(x) + q(y) + pair(x, y)."""
        val = la.vec_mat_vec(self.reduce(x), self.table, self.reduce(y))
        return self._value(2 * val)

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
    """The discriminant group of a lattice with its quadratic form.

    The SNF generator t_i/d_i is taken as (t_i mod d_i)/d_i: the two differ
    by a lattice vector, which changes neither the element nor q.
    """
    d, t = lat._smith
    keep = [i for i in range(lat.rank) if d[i][i] > 1]
    e = d[keep[-1]][keep[-1]] if keep else 1
    cols = [[row[i] % d[i][i] * (e // d[i][i]) for i in keep] for row in t]
    return FiniteQuadraticForm(
        invariant_factors=tuple(d[i][i] for i in keep),
        generators=tuple(map(tuple, zip(*cols))),
        table=tuple(map(tuple, la.congruence(cols, lat.gram))),
        modulus=2 if is_even(lat) else 1,
    )


def disc_local_part(form, ell):
    """The ell-primary component, with the restricted quadratic form.
    Raises DomainError unless ell is prime."""
    check_prime(ell)
    parts = []
    for i, d in enumerate(form.invariant_factors):
        e = ell ** _val(d, ell)
        if e > 1:
            # d // e is the prime-to-ell cofactor c, and c*g generates the
            # ell-primary part of this cyclic factor.
            parts.append((i, e, d // e))
    # over the local exponent e / s, vectors and table divide exactly by s
    s = form.exponent // (parts[-1][1] if parts else 1)
    return FiniteQuadraticForm(
        invariant_factors=tuple(e for _, e, _ in parts),
        generators=tuple(tuple(c * x // s for x in form.generators[i])
                         for i, _, c in parts),
        table=tuple(tuple(ci * cj * form.table[i][j] // (s * s)
                          for j, _, cj in parts) for i, _, ci in parts),
        modulus=form.modulus,
    )


def _join(form, h, x):
    """The subgroup generated by the subgroup h and the element x: the
    union of the cosets h + kx, for k up to the first kx that lies in h."""
    out = set(h)
    step = x
    while step not in h:
        out.update(form.add(y, step) for y in h)
        step = form.add(step, x)
    return frozenset(out)


def isotropic_subgroups(form):
    """All subgroups on which q vanishes, in a canonical order.

    Ordered by (order, sorted element tuples); always includes the trivial
    subgroup.  Raises CapacityError when the group is larger than
    ``MAX_GROUP_ORDER``.
    """
    check_limit("MAX_GROUP_ORDER", MAX_GROUP_ORDER, "group of order",
                form.order)
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
                extended = _join(form, h, x)
                if extended <= iso_set and extended not in found:
                    found.add(extended)
                    nxt.append(extended)
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
    # e times the overlattice, whose HNF is e times the overlattice's HNF
    e = form.exponent
    rows = [[e if i == j else 0 for j in range(n)] for i in range(n)]
    rows += la.mat_mul([x for x in sub.elements if any(x)], form.generators)
    basis = la.hermite_normal_form(rows)
    return [[Fraction(x, e) for x in row] for row in basis]


def overlattice_from_isotropic(lat, sub):
    """The integral overlattice generated by the lattice and lifts of an
    isotropic subgroup of its discriminant form.

    The result satisfies |det| = |det(lat)| / order^2 and is even whenever
    the input is.
    """
    bq = overlattice_basis(lat, sub)
    g = la.congruence(la.transpose(bq), lat.gram)
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
    g = [as_vector(row) for row in g]
    if not is_isometry(lat, g):
        raise StructureError("g is not an isometry of the lattice")
    (m,) = as_vector([m])
    if m < 1:
        raise DomainError("m must be positive")
    form = discriminant_group(lat)
    # m * L^v <= L exactly when the exponent of L^v / L divides m
    if m % form.exponent:
        raise DomainError("m does not satisfy m * dual <= lattice")
    # g fixes the lift c_i / e modulo L exactly when g c_i = c_i mod e
    for gen in form.generators:
        moved = la.mat_vec(g, gen)
        if any((a - b) % form.exponent for a, b in zip(moved, gen)):
            return False
    return True


def forms_isomorphic(f1, f2):
    """True iff the finite quadratic forms are isomorphic: they have the
    same invariant factors, the same modulus and the same sorted multiset
    of (element order, q) pairs.  Raises CapacityError above
    ``MAX_GROUP_ORDER``, since the multiset enumerates the group.  The
    pairs hold x^T T x mod modulus * e^2, which is q(x) over the common
    denominator e^2.

    The multiset is a complete invariant:
    - p-parts.  The elements of p-power order form the p-part, so the
      multiset splits into one multiset per p-part.  Two forms are
      isomorphic iff their p-parts are.
    - Odd p.  The bilinear form b fixes q.  For each k, the sum over
      p^k x = 0 of exp(2 pi i p^(k-1) q(x)) is a positive count times the
      Gauss sum of the scale-p^k Jordan block, so its phase gives that
      block's Legendre class.  The ranks come from the invariant factors.
      Ranks and classes classify the form (Wall 1963; Nikulin 1979, 1.8).
    - p = 2, the bilinear form.  The Kawauchi-Kojima invariants are the
      Gauss sums over 2^k x = 0 of exp(2 pi i 2^(k-1) b(x, x)); with the
      group they classify b (Kawauchi and Kojima, Algebraic classification
      of linking pairings on 3-manifolds, Math. Ann. 253, 1980).  For
      modulus 1, q = b(x, x) mod 1, so the proof ends here.
    - p = 2, modulus 2.  Two refinements q and q' of one b differ by
      x -> 2 b(x, c) for some c with 2c = 0.  Their Gauss sums
      g(q) = sum of exp(pi i q(x)), which are never 0, satisfy
      g(q') = exp(-pi i q(c)) g(q).  If g(q') = g(q), then q(c) = 0 mod 2,
      and t(x) = x + 2 b(x, c) c is an isometry of b with q o t = q'.
    """
    if f1.invariant_factors != f2.invariant_factors:
        return False
    if f1.modulus != f2.modulus:
        return False
    check_limit("MAX_GROUP_ORDER", MAX_GROUP_ORDER, "group of order",
                f1.order)
    # both forms enumerate the same elements, so the orders are shared
    elements = list(f1.elements())
    orders = [f1.element_order(x) for x in elements]
    m = f1.modulus * f1.exponent ** 2
    profiles = [sorted(zip(orders, (la.vec_mat_vec(x, f.table, x) % m
                                    for x in elements))) for f in (f1, f2)]
    return profiles[0] == profiles[1]
