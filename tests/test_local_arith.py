import random
import time
import warnings
from fractions import Fraction

import pytest

import k3lattice._intlinalg as la
from helpers import (conjugate_gram, pointed_isometry_search,
                     random_even_gram, random_unimodular)
from k3lattice import (DomainError, QuadLattice, StructureError,
                       UnverifiedHypothesisWarning, artin_invariant,
                       direct_sum, is_selfdual_at_p, jordan_decomposition,
                       k3n_lattice, make_E8, make_rank1, make_U,
                       pointed_equivalent_at_p, pointed_invariants)
from k3lattice.local_arith import _block_split, _val


def test_jordan_examples():
    assert jordan_decomposition(make_U(), 3).blocks == ((0, 2, -1),)
    for p in (3, 5, 7, 11):
        assert jordan_decomposition(make_E8(), p).blocks == ((0, 8, 1),)
    for n in (3, 4, 6):
        for p in (3, 5):
            lat = make_rank1(2 - 2 * n)
            dec = jordan_decomposition(lat, p)
            v = _val(2 * n - 2, p)
            assert dec.blocks[0][0] == v
            assert dec.blocks[0][1] == 1


def test_jordan_rejects_two():
    with pytest.raises(DomainError):
        jordan_decomposition(make_U(), 2)
    # -18 = 9 * (-2) and -2 = 1 mod 3 is a residue
    assert jordan_decomposition(make_rank1(-18), 3).blocks == ((2, 1, 1),)


def test_jordan_isometry_invariance():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        g = random_even_gram(rng, n)
        lat = QuadLattice(g)
        u = random_unimodular(n, rng)
        twisted = QuadLattice(conjugate_gram(g, u))
        for p in (3, 5):
            assert jordan_decomposition(lat, p) == \
                jordan_decomposition(twisted, p)


def test_jordan_det_class_product():
    # Legendre class of the full determinant's unit part is the product of
    # the block classes
    rng = random.Random(29)
    for _ in range(20):
        lat = QuadLattice(random_even_gram(rng, rng.randint(1, 4)))
        for p in (3, 5, 7):
            dec = jordan_decomposition(lat, p)
            det = lat.det
            while det % p == 0:
                det //= p
            whole = 1 if pow(det % p, (p - 1) // 2, p) == 1 else -1
            prod = 1
            for _, _, cls in dec.blocks:
                prod *= cls
            assert prod == whole


def test_artin_at_two():
    t = direct_sum(make_U(), QuadLattice(((0, 2), (2, 0))))
    res = artin_invariant(t, 2)
    assert res.sigma == 1 and res.superspecial
    assert [list(r) for r in res.scaled_gram] == [[0, 1], [1, 0]]


def test_jordan_det_valuation():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        lat = QuadLattice(random_even_gram(rng, n))
        for p in (3, 5, 7):
            dec = jordan_decomposition(lat, p)
            vdet = _val(lat.det, p)
            assert dec.det_valuation() == vdet


def test_selfdual_examples():
    for n in (2, 3, 4, 7):
        lat = k3n_lattice(n)
        for p in (5, 7, 11, 13):
            assert is_selfdual_at_p(lat, p) == ((2 * n - 2) % p != 0)
    assert not is_selfdual_at_p(k3n_lattice(4), 3)
    assert is_selfdual_at_p(make_E8(), 2)


def test_pointed_equivalent_examples():
    lam = k3n_lattice(2)
    v = [0] * 23
    v[0], v[1] = 1, 1
    w = [0] * 23
    w[2], w[3] = 1, 1
    assert pointed_equivalent_at_p(lam, v, w, 5)
    w4 = [0] * 23
    w4[0], w4[1] = 1, 2  # norm 4
    assert not pointed_equivalent_at_p(lam, v, w4, 5)
    assert pointed_equivalent_at_p(lam, v, v, 2)
    with pytest.raises(DomainError):
        pointed_equivalent_at_p(lam, [2 * x for x in v], w, 5)


def test_pointed_equivalent_warns_without_lineage():
    raw = QuadLattice(((0, 1, 0), (1, 0, 0), (0, 0, 2)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pointed_equivalent_at_p(raw, (1, 1, 0), (0, 0, 1), 3)
    assert any(issubclass(w.category, UnverifiedHypothesisWarning)
               for w in caught)


def test_pointed_equivalent_odd_lattice_at_two():
    odd = direct_sum(direct_sum(make_U(), make_U()), make_rank1(1))
    with pytest.raises(DomainError):
        pointed_equivalent_at_p(odd, (1, 1, 0, 0, 0), (0, 0, 1, 1, 0), 2)


def test_pointed_invariants_k3_square():
    lam = k3n_lattice(2)
    v = [0] * 23
    v[0], v[1] = 1, 1
    w = [0] * 23
    w[2], w[3] = 1, 1
    inv_v = pointed_invariants(lam, v)
    inv_w = pointed_invariants(lam, w)
    assert inv_v.signature == (3, 20)
    assert inv_v.point_norm == 2
    assert inv_v == inv_w
    assert inv_v == pointed_invariants(lam, [-x for x in v])
    w4 = [0] * 23
    w4[0], w4[1] = 1, 2
    assert inv_v != pointed_invariants(lam, w4)
    with pytest.raises(DomainError):
        pointed_invariants(lam, [2 * x for x in v])


def test_pointed_invariants_match_brute_force_small():
    # on a small lattice, equal invariants come with an explicit pointed
    # isometry and unequal invariants admit none (bounded search)
    lam = direct_sum(make_U(), make_U())
    v = (1, 1, 0, 0)
    w = (0, 0, 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert pointed_invariants(lam, v) == pointed_invariants(lam, w)
    iso = pointed_isometry_search(lam.gram, v, w, bound=1)
    assert iso is not None
    gt = la.transpose(iso)
    assert la.mat_mul(gt, la.mat_mul([list(r) for r in lam.gram], iso)) == \
        [list(r) for r in lam.gram]
    v2 = (1, 2, 0, 0)  # norm 4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert pointed_invariants(lam, v) != pointed_invariants(lam, v2)
    assert pointed_isometry_search(lam.gram, v, v2, bound=1) is None


def test_pointed_invariants_two_large_primes_is_fast():
    # the complement of e + N f in U + U has determinant 2N, with
    # N = (1e9+7)(1e9+9) (53 s by trial division)
    lam = direct_sum(make_U(), make_U())
    n = (10 ** 9 + 7) * (10 ** 9 + 9)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inv = pointed_invariants(lam, (1, n, 0, 0))
    assert time.perf_counter() - start < 2
    assert abs(inv.complement_det) == 2 * n
    assert [p for p, _ in inv.odd_local] == [10 ** 9 + 7, 10 ** 9 + 9]


def test_artin_examples():
    for p in (5, 7, 13):
        scaled = QuadLattice(((0, p), (p, 0)))
        t = direct_sum(make_U(), scaled)
        res = artin_invariant(t, p)
        assert res.sigma == 1 and res.superspecial
        t3 = make_U()
        for _ in range(3):
            t3 = direct_sum(t3, QuadLattice(((0, p), (p, 0))))
        res3 = artin_invariant(t3, p)
        assert res3.sigma == 3 and not res3.superspecial
    with pytest.raises(StructureError):
        artin_invariant(direct_sum(make_rank1(5), make_U()), 5)
    with pytest.raises(StructureError):
        artin_invariant(make_rank1(25), 5)


def test_artin_unimodular_summand_stability():
    rng = random.Random(41)
    p = 7
    for sigma in (1, 2):
        t = QuadLattice(((0, p), (p, 0)))
        for _ in range(sigma - 1):
            t = direct_sum(t, QuadLattice(((0, p), (p, 0))))
        t = direct_sum(t, make_U())
        base = artin_invariant(t, p).sigma
        assert base == sigma
        assert artin_invariant(direct_sum(t, make_U()), p).sigma == sigma
        u = random_unimodular(t.rank, rng)
        twisted = QuadLattice(conjugate_gram(t.gram, u))
        assert artin_invariant(twisted, p).sigma == sigma


def test_artin_witness_blocks():
    p = 5
    t = direct_sum(make_U(), QuadLattice(((0, p), (p, 0))))
    res = artin_invariant(t, p)
    # witness bases span blocks whose Gram is (unimodular) and p*(unimodular)
    for vec in res.unscaled_basis:
        assert all(Fraction(x).denominator % p != 0 for x in vec)
    assert len(res.scaled_basis) == 2 * res.sigma
    for i, x in enumerate(res.scaled_basis):
        for j, y in enumerate(res.scaled_basis):
            val = la.vec_mat_vec(x, t.gram, y)
            assert _val(val, p) >= 1 if val != 0 else True
            assert res.scaled_gram[i][j] == Fraction(val) / p


def test_block_split_is_congruence():
    from k3lattice._intlinalg import det as _fraction_det
    rng = random.Random(59)
    for p in (2, 3, 5):
        for _ in range(15):
            n = rng.randint(1, 4)
            g = random_even_gram(rng, n)
            vecs = []
            offsets = []
            for scale, block, basis in _block_split(g, p):
                offsets.append((len(vecs), scale, block))
                vecs.extend(basis)
                for v in basis:
                    for x in v:
                        if x != 0:
                            assert _val(Fraction(x), p) >= 0
            # the new basis must be p-integral with p-unit determinant and
            # carry exactly the reported orthogonal blocks
            assert _val(_fraction_det(vecs), p) == 0
            full = [[la.vec_mat_vec(x, g, y) for y in vecs] for x in vecs]
            for start, scale, block in offsets:
                r = len(block)
                for i in range(r):
                    for j in range(len(vecs)):
                        expect = block[i][j - start] \
                            if start <= j < start + r else 0
                        assert full[start + i][j] == expect
                assert _val(_fraction_det(block), p) == scale * r
