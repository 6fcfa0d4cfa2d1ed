"""Exact searches: Fincke-Pohst enumeration of the vectors of one norm in
a definite lattice (the CLI's ``enumerate``), on the LLL-reduced basis the
lattice keeps and up to sign, isometry search between definite lattices
with a witness (from the first lattice's kept reduced basis), and a vector
of norm prime to p.
"""

from dataclasses import dataclass
from math import gcd, isqrt, lcm
from operator import mul

from . import _intlinalg as la
from .errors import Budget, DomainError
from .lattice_core import as_vector, signature
from .prime_density import check_prime

# vectors_of_norm raises CapacityError once its search would visit more
# coordinate values than this, summed over the ranges of all levels, and
# is_isometric_definite once its search would try more candidate images,
# summed over the candidate lists of all levels.
NODE_BUDGET = 1 << 21


@dataclass(frozen=True)
class VectorSet:
    """All lattice vectors of one norm, canonically ordered."""

    norm: int
    vectors: tuple

    def __len__(self):
        return len(self.vectors)


def vectors_of_norm(lat, m):
    """All lattice vectors x with <x, x> = m on a definite lattice.

    Complete (the backtracking bounds are intrinsic).  The search runs on
    the lattice's kept LLL-reduced basis, with the top nonzero coordinate
    positive; each vector found is built in the lattice's basis as the
    search descends and returned with its negative, sorted.
    ``NODE_BUDGET`` caps the coordinate values the search visits.
    """
    pos, neg = signature(lat)
    if pos and neg:
        raise DomainError("lattice is not definite")
    sign = 1 if pos else -1
    n = lat.rank
    target = sign * m
    if target < 0:
        return VectorSet(m, ())
    if target == 0:
        return VectorSet(m, ((0,) * n,))
    # Integer factors from the LLL reduction the lattice keeps: the rows of
    # basis span the lattice, and y in their coordinates is x = basis^T y.
    # With D_i the minors of their Gram matrix (of sign G, so all D_i > 0),
    # M_i its stage rows and h_i = gcd(M_i), e_i = D_i / h_i and
    # a_ij = M_ij / h_i give den sign <x, x> = sum_i w_i (e_i y_i + s_i)^2,
    # where s_i = sum_{j>i} a_ij y_j and w_i / den = h_i^2 / (D_(i-1) D_i).
    basis, minors, rows = lat._reduction
    h = [gcd(*row) for row in rows]
    e = [d // hk for d, hk in zip(minors, h)]
    # tails[i] = [a_ij for j > i]
    tails = [[x // hk for x in row[i + 1:]]
             for i, (hk, row) in enumerate(zip(h, rows))]
    pd = [p * d for p, d in zip([1] + minors, minors)]
    den = lcm(*(pk // gcd(hk * hk, pk) for hk, pk in zip(h, pd)))
    w = [hk * hk * den // pk for hk, pk in zip(h, pd)]
    found = []
    y = [0] * n
    meter = Budget("NODE_BUDGET", NODE_BUDGET, "enumeration visits",
                   "coordinate values")

    def descend(i, remaining, top, part):
        # remaining = den target - the weighted squares for indices > i, and
        # part = sum_{j>i} y_j basis_j; while every coordinate above i is
        # zero (top), s = 0 and only y_i >= 0 is searched: y is found with
        # its top nonzero coordinate positive, and -y is added with it
        s = sum(map(mul, tails[i], y[i + 1:]))
        r = isqrt(remaining // w[i])
        lo, hi = 0 if top else -((r + s) // e[i]), (r - s) // e[i]
        meter.charge(hi - lo + 1)
        row = basis[i]
        for t in range(lo, hi + 1):
            used = w[i] * (e[i] * t + s) ** 2
            if i == 0:
                if used == remaining:
                    x = tuple([p + t * b for p, b in zip(part, row)])
                    found.extend((x, tuple([-c for c in x])))
            else:
                y[i] = t
                descend(i - 1, remaining - used, top and not t,
                        [p + t * b for p, b in zip(part, row)])
        y[i] = 0

    descend(n - 1, den * target, True, [0] * n)
    found.sort()
    return VectorSet(m, tuple(found))


def is_isometric_definite(l1, l2):
    """Search for an isometry between definite lattices.

    Returns a matrix g with g^T G2 g = G1 (columns are the images of the
    basis of l1 in the basis of l2), or None if no isometry exists.
    ``NODE_BUDGET`` caps the candidate images the search tries.
    """
    s1 = signature(l1)
    s2 = signature(l2)
    if 0 not in s1 or 0 not in s2:
        raise DomainError("isometry search requires definite lattices")
    # definite signatures agree iff the ranks and the signs do
    if s1 != s2:
        return None
    if l1.det != l2.det:
        return None
    n = l1.rank
    # search for the images of l1's kept reduced basis, the rows of h, whose
    # Gram matrix g1 = h G1 h^T has small diagonal norms
    h = l1._reduction[0]
    g1 = la.congruence(la.transpose(h), l1.gram)
    candidates = {}
    for i in range(n):
        norm = g1[i][i]
        if norm not in candidates:
            # each candidate v with its row v^T G2 (G2 is symmetric)
            candidates[norm] = [(v, la.mat_vec(l2.gram, v))
                                for v in vectors_of_norm(l2, norm).vectors]
        if not candidates[norm]:
            return None
    # an isometry maps each shell of l1 onto the same shell of l2
    if any(len(vectors_of_norm(l1, norm)) != len(vs)
           for norm, vs in candidates.items()):
        return None
    images = []
    meter = Budget("NODE_BUDGET", NODE_BUDGET, "isometry search tries",
                   "candidate images")

    def place(i):
        if i == n:
            return True
        meter.charge(len(candidates[g1[i][i]]))
        for v, row in candidates[g1[i][i]]:
            if all(sum(map(mul, row, images[j])) == g1[i][j]
                   for j in range(i)):
                images.append(v)
                if place(i + 1):
                    return True
                images.pop()
        return False

    if not place(0):
        return None
    # e_i = sum_j (h^-1)_ij h_j, and the row HNF of [h | I] is [I | h^-1]
    hinv = [row[n:] for row in la.hermite_normal_form(
        [row + e for row, e in zip(h, la.identity(n))])]
    g = tuple(tuple(sum(map(mul, hinv[j], col)) for j in range(n))
              for col in zip(*images))
    assert la.congruence(g, l2.gram) == [list(r) for r in l1.gram]
    return g


def find_vector_norm_prime_to_p(lat, p):
    """A lattice vector w with p not dividing <w, w>, or None.

    Basis vectors and pairwise sums decide existence exactly: if every
    Gram entry vanishes mod p (p odd), or every diagonal entry is even
    (p = 2), then every norm is divisible by p and None is definitive.
    """
    check_prime(p)
    n = lat.rank
    g = lat.gram
    for i in range(n):
        if g[i][i] % p != 0:
            return as_vector(tuple(int(i == t) for t in range(n)), n)
    if p == 2:
        return None  # even diagonal forces every norm even
    for i in range(n):
        for j in range(i + 1, n):
            if g[i][j] % p != 0:
                v = tuple(int(t in (i, j)) for t in range(n))
                assert (g[i][i] + g[j][j] + 2 * g[i][j]) % p != 0
                return as_vector(v, n)
    return None  # Gram is 0 mod p, so every norm is divisible by p
