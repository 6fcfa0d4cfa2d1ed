"""Brute-force oracles on definite lattices: complete short-vector
enumeration and isometry search.  These back the invariant-based
classification routines with explicit witnesses.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt

from . import _intlinalg as la
from .errors import CapacityError, DomainError
from .lattice_core import as_vector, signature

# vectors_of_norm raises CapacityError past this coordinate size.
COEFF_BOUND = 10 ** 6

# is_isometric_definite raises CapacityError above this rank.
MAX_ISOMETRY_RANK = 8


@dataclass(frozen=True)
class VectorSet:
    """All lattice vectors of one norm, canonically ordered."""

    norm: int
    vectors: tuple

    def __len__(self):
        return len(self.vectors)


def _floor_sqrt(f):
    """floor(sqrt(f)) for a nonnegative Fraction."""
    if f < 0:
        raise ValueError
    return isqrt(f.numerator * f.denominator) // f.denominator


def _range_bounds(center, radius2):
    """Integers t with (t + center)^2 <= radius2, as an inclusive range."""
    if radius2 < 0:
        return 1, 0
    s = _floor_sqrt(radius2)
    # conservative endpoints, then tighten exactly (the slack is <= 2)
    lo = floor(-center) - s - 1
    hi = floor(-center) + s + 2
    while lo <= hi and (lo + center) ** 2 > radius2:
        lo += 1
    while hi >= lo and (hi + center) ** 2 > radius2:
        hi -= 1
    return lo, hi


def vectors_of_norm(lat, m):
    """All lattice vectors x with <x, x> = m on a definite lattice.

    Complete (the backtracking bounds are intrinsic); ``COEFF_BOUND`` is a
    sanity cap on coordinate sizes, exceeded only by absurd inputs.
    """
    d, c = la.ldl(lat.gram)
    sign = 1 if d[0] > 0 else -1
    if any(sign * x < 0 for x in d):
        raise DomainError("lattice is not definite")
    d = [sign * x for x in d]
    n = lat.rank
    target = sign * m
    if target < 0:
        return VectorSet(m, ())
    if target == 0:
        return VectorSet(m, ((0,) * n,))
    found = []
    x = [0] * n

    def descend(i, remaining):
        # remaining = target - sum of completed squares for indices > i
        center = sum(c[i][j] * x[j] for j in range(i + 1, n))
        lo, hi = _range_bounds(center, Fraction(remaining, 1) / d[i])
        if max(abs(lo), abs(hi)) > COEFF_BOUND:
            raise CapacityError("coefficient bound exceeded")
        for t in range(lo, hi + 1):
            x[i] = t
            used = d[i] * (t + center) ** 2
            if i == 0:
                if used == remaining:
                    found.append(tuple(x))
            else:
                descend(i - 1, remaining - used)
        x[i] = 0

    descend(n - 1, Fraction(target))
    found.sort()
    return VectorSet(m, tuple(found))


def is_isometric_definite(l1, l2):
    """Search for an isometry between definite lattices of rank at most
    ``MAX_ISOMETRY_RANK``.

    Returns a matrix g with g^T G2 g = G1 (columns are the images of the
    basis of l1 in the basis of l2), or None if no isometry exists.
    """
    s1 = signature(l1)
    s2 = signature(l2)
    if 0 not in s1 or 0 not in s2:
        raise DomainError("isometry search requires definite lattices")
    # definite signatures agree iff the ranks and the signs do
    if s1 != s2:
        return None
    if l1.rank > MAX_ISOMETRY_RANK:
        raise CapacityError(
            f"rank {l1.rank} exceeds bound {MAX_ISOMETRY_RANK}")
    if l1.det != l2.det:
        return None
    n = l1.rank
    g1 = l1.gram
    candidates = {}
    for i in range(n):
        norm = g1[i][i]
        if norm not in candidates:
            candidates[norm] = vectors_of_norm(l2, norm).vectors
        if not candidates[norm]:
            return None
    images = []

    def place(i):
        if i == n:
            return True
        for v in candidates[g1[i][i]]:
            if all(la.vec_mat_vec(v, l2.gram, images[j]) == g1[i][j]
                   for j in range(i)):
                images.append(v)
                if place(i + 1):
                    return True
                images.pop()
        return False

    if not place(0):
        return None
    g = tuple(tuple(images[j][i] for j in range(n)) for i in range(n))
    assert la.congruence(g, l2.gram) == [list(r) for r in g1]
    return g


def find_vector_norm_prime_to_p(lat, p):
    """A lattice vector w with p not dividing <w, w>, or None.

    Basis vectors and pairwise sums decide existence exactly: if every
    Gram entry vanishes mod p (p odd), or every diagonal entry is even
    (p = 2), then every norm is divisible by p and None is definitive.
    """
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
