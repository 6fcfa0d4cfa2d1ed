"""p-adic invariants of quadratic lattices.

Two symmetric eliminations split a lattice into p^k-scaled unimodular
blocks over the p-adic integers:

* Odd-p Jordan data (scale, rank and Legendre class per scale) come from an
  elimination over the integers mod p^(v+1), v = v_p(det), that keeps no
  basis; every scale is at most v, so that precision is exact.
* The Artin invariant's witness bases come from an exact block
  diagonalization over the local ring of p-integral rationals, one
  fraction-free step per 1x1 or 2x2 pivot on the trailing integer rows of
  [G | I], with Fractions made only where a block is recorded: every
  transformation matrix has p-unit determinant and p-integral entries, so
  the witnesses are exact rational vectors.  The split is orthogonal, so
  each witness Gram is the block diagonal of the blocks it returns, built
  by ``lattice_core.block_diagonal``.

Valuations are ``prime_density._val``, the library's one p-adic valuation.
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .disc_form import disc_local_part, discriminant_group, forms_isomorphic
from .errors import DomainError, StructureError, UnverifiedHypothesisWarning
from .lattice_core import (as_vector, block_diagonal, inner_product,
                           is_even, is_primitive, orthogonal_complement,
                           signature)
from .prime_density import (_val, check_prime, factorize, is_prime,
                            kronecker_symbol)


def _block_split(gram, p):
    """Split a lattice over the p-adic integers into p^k-scaled unimodular
    blocks, exactly; it serves only artin_invariant's witness bases.

    Returns a list of (scale, block, basis) where block is a 1x1 or 2x2
    Fraction matrix equal to p^scale times a p-unimodular matrix and basis
    holds the corresponding p-integral basis vectors (ambient coordinates).
    2x2 blocks occur only for p = 2.

    One fraction-free step (Bareiss) serves both pivot shapes on the integer
    rows [G | I], each den times its true value, den the leading minor of
    the blocks split off so far: the pivot block b (size s, d = det b) moves
    to the front, each later row t becomes (d row_t - (a_tb adj b) rows_b) /
    den^s, exact by Sylvester's identity, and den becomes d / den^(s-1).
    Fractions over den are made only where a block is recorded.
    """
    n = len(gram)
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(gram)]
    den = 1
    blocks = []
    while rows:
        m = len(rows)
        g = gcd(*(x for row in rows for x in row[:m]))
        assert g, "nondegenerate lattice ran out of pivots"
        v = _val(g, p)
        high = p ** (v + 1)
        # the first entry of least valuation, and the first such diagonal
        i, j = next((i, j) for i in range(m) for j in range(i, m)
                    if rows[i][j] % high)
        diag = next((t for t in range(m) if rows[t][t] % high), None)
        if diag is None and p != 2:
            # b_i += b_j: a_ii + 2 a_ij + a_jj has valuation exactly v
            rows[i] = [x + y for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[i] += row[j]
            diag = i
        # a diagonal pivot, or the 2x2 block on i < j when p = 2 has its
        # minimal valuation only off the diagonal; ascending swaps leave the
        # later targets in place
        piv = (i, j) if diag is None else (diag,)
        s = len(piv)
        for r, t in enumerate(piv):
            rows[r], rows[t] = rows[t], rows[r]
            for row in rows:
                row[r], row[t] = row[t], row[r]
        pivots, rows = rows[:s], rows[s:]
        b = [row[:s] for row in pivots]
        blocks.append((v - _val(den, p),
                       [[Fraction(x, den) for x in row] for row in b],
                       [tuple(Fraction(x, den) for x in row[m:])
                        for row in pivots]))
        # d = det b and c = a_tb adj b in closed form; b is symmetric
        q = den ** s
        tails = [row[s:] for row in pivots]
        if s == 1:
            d = b[0][0]
            for t, row in enumerate(rows):
                rows[t] = [(d * x - row[0] * y) // q
                           for x, y in zip(row[1:], *tails)]
        else:
            (e, f), (_, h) = b
            d = e * h - f * f
            for t, row in enumerate(rows):
                c0, c1 = h * row[0] - f * row[1], e * row[1] - f * row[0]
                rows[t] = [(d * x - c0 * y - c1 * z) // q
                           for x, y, z in zip(row[2:], *tails)]
        den = d // den ** (s - 1)
    return blocks


def _jordan_mod(gram, p, vdet):
    """Odd-p Jordan data ((scale, rank, det_class), ...) sorted by scale of a
    nondegenerate Gram with vdet = v_p(det), by symmetric elimination over
    the integers mod p^K, K = vdet + 1.

    Every scale is at most vdet, so each pivot d of minimal valuation v is
    nonzero mod p^K and its unit part is exact mod p.  The factor
    (a_tk / p^v) (d / p^v)^-1 is known mod p^(K - v), and every entry of the
    pivot row has valuation at least v, so each update is exact mod p^K.
    """
    mod = p ** (vdet + 1)
    a = [[x % mod for x in row] for row in gram]
    scales = {}
    while a:
        pv = gcd(mod, *(x for row in a for x in row))
        assert pv != mod, "nondegenerate lattice ran out of pivots"
        high = pv * p
        k = next((t for t in range(len(a)) if a[t][t] % high), None)
        if k is None:
            # the first such entry has i < j, and for odd p
            # a[i][i] + 2 a[i][j] + a[j][j] has valuation exactly v
            k, j = next((i, j) for i, row in enumerate(a)
                        for j, x in enumerate(row) if x % high)
            a[k] = [(x + y) % mod for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] = (row[k] + row[j]) % mod
        pivot = a.pop(k)
        unit = pivot.pop(k) // pv
        w = pow(unit, -1, mod)
        for row in a:
            f = row.pop(k) // pv * w % mod
            if f:
                row[:] = [(x - f * y) % mod for x, y in zip(row, pivot)]
        v = _val(pv, p)
        rank, prod = scales.get(v, (0, 1))
        scales[v] = (rank + 1, prod * unit % p)
    return tuple((v, rank, kronecker_symbol(prod, p))
                 for v, (rank, prod) in sorted(scales.items()))


@dataclass(frozen=True)
class JordanDecomposition:
    """Odd-p local invariants: per scale, the rank and the Legendre class
    of the unimodular block determinant."""

    prime: int
    blocks: tuple  # ((scale, rank, det_class), ...) sorted by scale

    @property
    def rank(self):
        return sum(r for _, r, _ in self.blocks)

    def det_valuation(self):
        return sum(k * r for k, r, _ in self.blocks)


def jordan_decomposition(lat, p):
    """Jordan decomposition of a lattice at an odd prime.

    The elimination runs mod p^(v_p(det) + 1), which is exact for the
    Jordan data, so no working precision is needed.
    """
    if p == 2:
        raise DomainError("p = 2 is not supported by the odd-p theory")
    if not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")
    vdet = _val(lat.det, p)
    out = JordanDecomposition(prime=p, blocks=_jordan_mod(lat.gram, p, vdet))
    assert out.rank == lat.rank
    assert out.det_valuation() == vdet
    return out


def is_selfdual_at_p(lat, p):
    """True iff the lattice is unimodular over the p-adic integers."""
    check_prime(p)
    return lat.det % p != 0


def _literal_planes(g):
    """True iff basis vectors e_i, e_j, e_k, e_l with G_ii = G_kk = 0,
    G_ij, G_kl = +-1, G_jj, G_ll even and G zero between {i, j} and {k, l}
    exist.  They span U + U, which is unimodular and so splits off."""
    idx = range(len(g))
    partners = {i: [j for j in idx if g[i][j] in (1, -1) and g[j][j] % 2 == 0]
                for i in idx if g[i][i] == 0}
    for i, js in partners.items():
        for j in js:
            free = {k for k in idx if g[i][k] == g[j][k] == 0}
            if any(l in free for k in free & partners.keys()
                   for l in partners[k]):
                return True
    return False


def _require_two_planes(lat, what):
    """Decide from the Gram matrix whether U + U splits off the lattice.

    Yes, silently, if the basis holds two literal planes, or if the lattice
    is even with t+, t- >= 2 and r >= l + 5, l the number of invariant
    factors > 1 of its kept Smith form (Nikulin, Integral symmetric bilinear
    forms, Cor. 1.13.5, twice), or l = 0 (even unimodular of signature
    (2, 2) is U + U).  No, with StructureError, if t+ < 2, t- < 2 or
    r < l + 4, since U + U + M has l <= rank M.  Otherwise (odd, or
    r = l + 4 > 4) an UnverifiedHypothesisWarning.
    """
    pos, neg = signature(lat)
    if min(pos, neg) < 2:
        raise StructureError(f"a lattice of signature ({pos}, {neg}) cannot "
                             "contain U + U")
    if _literal_planes(lat.gram):
        return
    gens = sum(1 for i, row in enumerate(lat._smith[0]) if row[i] > 1)
    if lat.rank < gens + 4:
        raise StructureError(f"a lattice of rank {lat.rank} cannot contain "
                             f"U + U: its discriminant group needs {gens} "
                             "generators")
    if not is_even(lat) or (lat.rank == gens + 4 and gens):
        warnings.warn(f"{what}: U + U is not in the basis, and the "
                      "discriminant form does not decide it; the result "
                      "assumes it", UnverifiedHypothesisWarning, stacklevel=3)


def pointed_equivalent_at_p(lat, v, w, p):
    """Decide whether two primitive vectors lie in one orbit of the p-adic
    isometry group of a lattice that contains U + U.

    Under that hypothesis (and evenness when p = 2) the orbit is determined
    by the self-pairing alone, so this reduces to comparing v^2 with w^2.
    """
    check_prime(p)
    v = as_vector(v, lat.rank)
    w = as_vector(w, lat.rank)
    if not is_primitive(lat, v) or not is_primitive(lat, w):
        raise DomainError("both vectors must be primitive")
    if p == 2 and not is_even(lat):
        raise DomainError("the p = 2 case requires an even lattice")
    _require_two_planes(lat, "pointed_equivalent_at_p")
    return inner_product(lat, v, v) == inner_product(lat, w, w)


@dataclass(frozen=True, eq=False)
class PointedInvariants:
    """Complete isomorphism invariants of a pointed lattice whose ambient
    lattice contains U + U, as pointed_invariants decides it from the Gram
    matrix.

    Equality compares the signature, point norm, complement determinant and
    odd-p Jordan data directly, and the 2-primary discriminant forms of the
    complement up to isomorphism.
    """

    signature: tuple
    point_norm: int
    complement_det: int
    odd_local: tuple  # ((p, JordanDecomposition), ...) sorted by p
    two_part: object  # FiniteQuadraticForm of the complement at 2

    def __eq__(self, other):
        if not isinstance(other, PointedInvariants):
            return NotImplemented
        return (self.signature == other.signature
                and self.point_norm == other.point_norm
                and self.complement_det == other.complement_det
                and self.odd_local == other.odd_local
                and forms_isomorphic(self.two_part, other.two_part))

    def __hash__(self):
        return hash((self.signature, self.point_norm, self.complement_det))


def pointed_invariants(lat, v):
    """The invariant tuple classifying (lattice, vector) up to isomorphism
    for lattices that contain U + U (Eichler's criterion); raises
    StructureError when the lattice cannot contain it."""
    v = as_vector(v, lat.rank)
    if not is_primitive(lat, v):
        raise DomainError("the distinguished vector must be primitive")
    comp, _ = orthogonal_complement(lat, v)
    _require_two_planes(lat, "pointed_invariants")
    odd = []
    for p, _ in factorize(comp.det):
        if p != 2:
            odd.append((p, jordan_decomposition(comp, p)))
    return PointedInvariants(
        signature=signature(lat),
        point_norm=inner_product(lat, v, v),
        complement_det=comp.det,
        odd_local=tuple(odd),
        two_part=disc_local_part(discriminant_group(comp), 2),
    )


@dataclass(frozen=True)
class ArtinResult:
    """Artin invariant of a supersingular Tate lattice, with a witness
    splitting into a p-unimodular part and a part that is p times a
    p-unimodular lattice."""

    prime: int
    sigma: int
    superspecial: bool
    unscaled_basis: tuple   # basis of the self-dual part (T1)
    scaled_basis: tuple     # basis whose Gram is p * (self-dual) (p T0)
    unscaled_gram: tuple
    scaled_gram: tuple


def artin_invariant(lat, p):
    """Half the p-rank of the discriminant of a lattice whose p-adic
    discriminant is elementary abelian of even rank.

    The lattice must split p-adically as (self-dual) + p*(self-dual); sigma
    is half the rank of the scaled part, and sigma = 1 is flagged
    superspecial.
    """
    check_prime(p)
    split = _block_split(lat.gram, p)
    bad = next((v for v, _, _ in split if v not in (0, 1)), None)
    if bad is not None:
        raise StructureError(
            f"lattice has a p^{bad}-scaled block at p = {p}; the "
            "discriminant is not elementary p-abelian")

    def witness(v):
        # the split is orthogonal and never touches a recorded basis row
        # again, so the Gram of the p^v-scaled part's basis is the block
        # diagonal of its blocks
        parts = [(block, basis) for scale, block, basis in split
                 if scale == v]
        vecs = tuple(x for _, basis in parts for x in basis)
        return vecs, block_diagonal(
            [[[x / p ** v for x in row] for row in block]
             for block, _ in parts], Fraction(0))

    t1_basis, t1_gram = witness(0)
    t0_basis, t0_gram = witness(1)
    if len(t0_basis) % 2 != 0:
        raise StructureError(
            "p-divisible part of the discriminant has odd rank")
    sigma = len(t0_basis) // 2
    return ArtinResult(
        prime=p,
        sigma=sigma,
        superspecial=(sigma == 1),
        unscaled_basis=t1_basis,
        scaled_basis=t0_basis,
        unscaled_gram=t1_gram,
        scaled_gram=t0_gram,
    )
