"""Integral quadratic lattices represented by symmetric Gram matrices.

A lattice is Z^rank with the pairing <x, y> = x^T G y for a fixed symmetric
nondegenerate integer matrix G.  An isometry onto another lattice is a
unimodular g with g^T G' g = G.  All arithmetic is exact.
"""

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from . import _intlinalg as la
from .errors import DegenerateLatticeError, DomainError, InvalidGramError


def _integral(values, error):
    """The values as a tuple of ints; raises ``error`` unless each one is an
    integer."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        bad = next(x for x, i in zip(values, ints) if x != i)
        raise error(f"entry {bad} is not an integer")
    return ints


def _freeze_gram(gram):
    return tuple(_integral(row, InvalidGramError) for row in gram)


@dataclass(frozen=True)
class QuadLattice:
    """A nondegenerate integral quadratic lattice."""

    gram: tuple
    # leading principal minors and stage rows of the Gram matrix, from its
    # elimination
    _minors: list = field(init=False, repr=False, compare=False)
    _rows: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = _freeze_gram(self.gram)
        if not g:
            raise InvalidGramError("Gram matrix must be non-empty")
        la.check_symmetric(g, InvalidGramError, "Gram matrix")
        minors, rows = la.symmetric_elimination(g)
        if len(minors) < len(g):
            raise DegenerateLatticeError("Gram matrix is degenerate")
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "_minors", minors)
        object.__setattr__(self, "_rows", rows)

    @cached_property
    def _smith(self):
        """(d, t) of the Smith normal form d = s G t, made on first use."""
        return la.smith_normal_form(self.gram)

    @cached_property
    def _reduction(self):
        """(h, minors, rows) of the LLL reduction of the Gram matrix of a
        definite lattice, made positive by the sign of its first entry;
        made on first use from the kept elimination."""
        sign = 1 if self.gram[0][0] > 0 else -1
        # negating G multiplies stage row k, whose entries are minors of
        # size k + 1, by sign^(k + 1)
        return la.lll_reduction([[sign ** k * x for x in row]
                                 for k, row in enumerate(self._rows, 1)])

    @property
    def rank(self):
        return len(self.gram)

    @property
    def det(self):
        return self._minors[-1]

    def __repr__(self):
        return f"QuadLattice(rank={self.rank}, det={self.det})"


def as_vector(v, rank=None):
    """Normalize a vector to a tuple of ints, checking that its entries are
    integers and, if given, its length."""
    vec = _integral(v, DomainError)
    if rank is not None and len(vec) != rank:
        raise DomainError(f"vector has length {len(vec)}, expected {rank}")
    return vec


def make_U():
    """The hyperbolic plane: Gram [[0,1],[1,0]]."""
    return QuadLattice(((0, 1), (1, 0)))


# Frozen basis for E8: the branch node first, then the arms of length 4, 2
# and 1 of the E8 tree.  This Gram has det 1 and is positive definite; the
# lattice used throughout is its negation.
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (0, 7))


def make_E8():
    """The negative definite even unimodular lattice of rank 8."""
    g = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        g[i][j] = g[j][i] = 1
    return QuadLattice(g)


def make_rank1(m):
    """Rank-one lattice generated by a vector of self-pairing m != 0."""
    (m,) = as_vector([m])
    if m == 0:
        raise DegenerateLatticeError("rank-1 lattice needs m != 0")
    return QuadLattice(((m,),))


def block_diagonal(blocks, zero=0):
    """The block-diagonal matrix of the square blocks, as a tuple of rows,
    with ``zero`` off the blocks."""
    n = sum(map(len, blocks))
    rows = ()
    for block in blocks:
        left, right = len(rows), n - len(rows) - len(block)
        rows += tuple((zero,) * left + tuple(row) + (zero,) * right
                      for row in block)
    return rows


def direct_sum(*lattices):
    """Orthogonal direct sum, as one block-diagonal Gram."""
    return QuadLattice(block_diagonal([lat.gram for lat in lattices]))


def k3n_lattice(n):
    """Second-cohomology lattice of a hyperkaehler variety of K3^[n] type:
    U^3 + E8^2 for n = 1, with an extra rank-one summand of norm 2-2n for
    n > 1."""
    if n < 1:
        raise DomainError("n must be >= 1")
    extra = [make_rank1(2 - 2 * n)] if n > 1 else []
    return direct_sum(make_U(), make_U(), make_U(), make_E8(), make_E8(),
                      *extra)


def inner_product(lat, x, y):
    """<x, y> = x^T G y."""
    x = as_vector(x, lat.rank)
    y = as_vector(y, lat.rank)
    return la.vec_mat_vec(x, lat.gram, y)


def is_primitive(lat, v):
    """True iff v is not a nontrivial integer multiple of a lattice vector,
    i.e. gcd of its coordinates is 1."""
    v = as_vector(v, lat.rank)
    if all(x == 0 for x in v):
        raise DomainError("zero vector is neither primitive nor imprimitive")
    return gcd(*v) == 1


def orthogonal_complement(lat, v):
    """Saturated orthogonal complement of a vector.

    Returns (complement, basis) where basis rows are vectors of ``lat``
    spanning {x : <x, v> = 0} saturatedly, and ``complement`` carries the
    induced Gram.  Raises DegenerateLatticeError if the induced form is
    degenerate (e.g. for isotropic v).
    """
    v = as_vector(v, lat.rank)
    if all(x == 0 for x in v):
        raise DomainError("cannot take the complement of the zero vector")
    if lat.rank == 1:
        raise DomainError("the orthogonal complement of a vector in a "
                          "rank-1 lattice is zero")
    # G v != 0 has rank 1, so columns 1.. of its Smith transform t span the
    # saturated kernel {x : (G v)^T x = 0}
    _, t = la.smith_normal_form([la.mat_vec(lat.gram, v)])
    basis = [row[1:] for row in t]  # columns
    g = la.congruence(basis, lat.gram)
    try:
        comp = QuadLattice(g)
    except DegenerateLatticeError:
        raise DegenerateLatticeError(
            "induced form on the complement is degenerate") from None
    return comp, tuple(zip(*basis))


def signature(lat):
    """(positive, negative) inertia of the rational quadratic space."""
    minors = lat._minors
    # the k-th pivot D_k / D_(k-1) is positive iff the two minors agree
    pos = sum(1 for a, b in zip([1] + minors, minors) if (a > 0) == (b > 0))
    return pos, len(minors) - pos


def is_even(lat):
    """True iff every self-pairing is even (equivalently, the diagonal is)."""
    return all(lat.gram[i][i] % 2 == 0 for i in range(lat.rank))


def is_isometry(lat, g):
    """True iff g is an integer matrix with g^T G g = G for the lattice's
    Gram G."""
    try:
        m = [as_vector(row, lat.rank) for row in g]
    except DomainError:
        return False
    if len(m) != lat.rank:
        return False
    return la.congruence(m, lat.gram) == [list(row) for row in lat.gram]
