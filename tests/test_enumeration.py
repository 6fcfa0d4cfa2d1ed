import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import k3lattice._intlinalg as la
from helpers import (box_vectors, conjugate_gram, definite_grams,
                     random_unimodular, sufficient_box, sympy_det,
                     transvected)
from k3lattice import (CapacityError, DomainError, QuadLattice, direct_sum,
                       enumeration, find_vector_norm_prime_to_p, inner_product,
                       is_isometric_definite, make_E8, make_rank1, make_U,
                       mukai_lattice, orthogonal_complement, signature,
                       vectors_of_norm)
from k3lattice.moduli_arith import hilbert_scheme_vector, mukai_vector_embed


def test_e8_root_count():
    roots = vectors_of_norm(make_E8(), -2)
    assert len(roots) == 240
    seen = set(roots.vectors)
    assert len(seen) == 240
    for v in roots.vectors:
        assert tuple(-x for x in v) in seen
    assert list(roots.vectors) == sorted(roots.vectors)


def test_e8_theta_series_shells():
    # theta series of E8: 1 + 240 q + 2160 q^2 + 6720 q^3 + ...
    e8 = make_E8()
    assert len(vectors_of_norm(e8, -4)) == 2160
    assert len(vectors_of_norm(e8, -6)) == 6720
    assert len(vectors_of_norm(e8, -3)) == 0  # even lattice, odd norm


def test_rank_one_examples():
    assert vectors_of_norm(make_rank1(2), 2).vectors == ((-1,), (1,))
    assert vectors_of_norm(make_rank1(2), 3).vectors == ()
    assert vectors_of_norm(make_rank1(2), 0).vectors == ((0,),)
    assert vectors_of_norm(make_rank1(-2), -2).vectors == ((-1,), (1,))
    # a norm of the other sign than the lattice has no vectors
    assert vectors_of_norm(make_rank1(2), -2).vectors == ()
    assert vectors_of_norm(make_E8(), 2).vectors == ()


def test_indefinite_rejected():
    with pytest.raises(DomainError):
        vectors_of_norm(make_U(), 2)


def test_agreement_with_box_enumeration():
    rng = random.Random(3)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if sympy_det(b) == 0:
            continue
        g = la.mat_mul(la.transpose(b), b)
        if max(max(abs(x) for x in row) for row in g) > 36:
            continue
        lat = QuadLattice(g)
        m = rng.randint(0, 12)
        mine = tuple(tuple(v) for v in vectors_of_norm(lat, m).vectors)
        assert mine == tuple(box_vectors(g, m, sufficient_box(g, m)))
        negated = QuadLattice([[-x for x in row] for row in g])
        assert vectors_of_norm(negated, -m).vectors == mine
        done += 1


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(definite_grams(max_rank=3), st.integers(0, 8))
def test_skewed_definite_lattices_against_box_enumeration(case, m):
    g, sign = case
    box = sufficient_box([[sign * x for x in row] for row in g], m)
    assert vectors_of_norm(QuadLattice(g), sign * m).vectors == tuple(
        box_vectors(g, sign * m, box))


def test_e8_skewed_past_1e6_finds_its_roots_in_under_a_second():
    # transvections until an entry passes 10^6: the search runs on the
    # kept reduced basis, whatever the skew of the input
    rng = random.Random(5)
    g = make_E8().gram
    while max(abs(x) for row in g for x in row) <= 10 ** 6:
        g = transvected(g, [(*rng.sample(range(8), 2), rng.choice((-1, 1)))])
    start = time.perf_counter()
    roots = vectors_of_norm(QuadLattice(g), -2)
    assert time.perf_counter() - start < 1
    assert len(roots) == 240
    assert all(la.vec_mat_vec(v, g, v) == -2 for v in roots.vectors)


def test_node_budget(monkeypatch):
    # one level, searched up to sign: t in 0..1, two coordinate values
    monkeypatch.setattr(enumeration, "NODE_BUDGET", 2)
    assert len(vectors_of_norm(make_rank1(2), 2)) == 2
    monkeypatch.setattr(enumeration, "NODE_BUDGET", 1)
    with pytest.raises(CapacityError, match="NODE_BUDGET = 1"):
        vectors_of_norm(make_rank1(2), 2)
    monkeypatch.setattr(enumeration, "NODE_BUDGET", 1000)
    with pytest.raises(CapacityError, match="NODE_BUDGET"):
        vectors_of_norm(make_E8(), -4)


def test_skewed_coordinates_past_1e6():
    # a unimodular skew of <1> + <1>: its four norm-2 vectors have
    # coordinates near 10^7, found in a handful of nodes
    lat = QuadLattice(((1, 10 ** 7), (10 ** 7, 10 ** 14 + 1)))
    assert vectors_of_norm(lat, 2).vectors == (
        (-10 ** 7 - 1, 1), (-10 ** 7 + 1, 1), (10 ** 7 - 1, -1),
        (10 ** 7 + 1, -1))


def test_node_budget_bounds_a_wide_range():
    # <1> at norm 10^14: one level of 2 * 10^7 + 1 values, refused before
    # any is visited
    with pytest.raises(CapacityError,
                       match=f"NODE_BUDGET = {enumeration.NODE_BUDGET} "):
        vectors_of_norm(make_rank1(1), 10 ** 14)


def test_block_swap_stability():
    blk = QuadLattice(((2, 1), (1, 4)))
    lat = direct_sum(blk, blk)
    vs = vectors_of_norm(lat, 2)
    seen = set(vs.vectors)
    for v in seen:
        swapped = v[2:] + v[:2]
        assert swapped in seen


def test_isometry_search_base_change():
    rng = random.Random(7)
    e8 = make_E8()
    u = random_unimodular(8, rng, steps=10, size=1)
    twisted = QuadLattice(conjugate_gram(e8.gram, u))
    g = is_isometric_definite(e8, twisted)
    assert g is not None
    gt = la.transpose([list(r) for r in g])
    assert la.mat_mul(gt, la.mat_mul([list(r) for r in twisted.gram],
                                     [list(r) for r in g])) == \
        [list(r) for r in e8.gram]


def test_built_lattices_are_not_eliminated_again(monkeypatch):
    # the constructor keeps its elimination; signature, enumeration and the
    # isometry search read it
    e8 = make_E8()
    twisted = QuadLattice(conjugate_gram(
        e8.gram, random_unimodular(8, random.Random(7), steps=10, size=1)))
    real = la.symmetric_elimination
    calls = []

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(la, "symmetric_elimination", counted)
    assert signature(twisted) == (0, 8)
    assert len(vectors_of_norm(twisted, -2)) == 240
    assert is_isometric_definite(e8, twisted) is not None
    assert calls == []


def test_isometry_search_from_skewed_e8_in_under_a_second():
    # E8's Cartan matrix under transvections until an entry reaches 300
    # (308): the search places images of the first lattice's kept reduced
    # basis, all of norm 2, whatever the skew of its given basis
    cartan = [[2 * (i == j) for j in range(8)] for i in range(8)]
    for i, j in [(i, i + 1) for i in range(6)] + [(4, 7)]:
        cartan[i][j] = cartan[j][i] = -1
    e8 = QuadLattice(cartan)
    rng = random.Random(1)
    g = cartan
    while max(abs(x) for row in g for x in row) < 300:
        g = transvected(g, [(*rng.sample(range(8), 2), rng.choice((-1, 1)))])
    assert max(abs(x) for row in g for x in row) == 308
    skewed = QuadLattice(g)
    start = time.perf_counter()
    w = is_isometric_definite(skewed, e8)
    assert time.perf_counter() - start < 1
    assert la.congruence(w, cartan) == [list(r) for r in g]
    assert la.congruence(is_isometric_definite(e8, skewed), g) == cartan


def test_isometry_search_verdicts():
    d4 = direct_sum(make_rank1(2), make_rank1(2))
    d16 = direct_sum(make_rank1(2), make_rank1(8))
    assert is_isometric_definite(d4, d16) is None
    # frozen regression verdict: same determinant, different minima
    a = QuadLattice(((2, 0), (0, 8)))
    b = QuadLattice(((4, 2), (2, 5)))
    assert is_isometric_definite(a, b) is None
    # opposite signs are never isometric
    assert is_isometric_definite(make_rank1(2), make_rank1(-2)) is None
    with pytest.raises(DomainError):
        is_isometric_definite(make_U(), make_U())
    big = direct_sum(make_E8(), make_rank1(-2))
    g = is_isometric_definite(big, big)
    assert la.congruence(g, big.gram) == [list(r) for r in big.gram]


def test_isometry_search_node_budget(monkeypatch):
    # A2 to A2: two levels of the six roots, 12 candidate images; the
    # enumeration of the roots visits 6 coordinate values
    a2 = QuadLattice(((2, -1), (-1, 2)))
    monkeypatch.setattr(enumeration, "NODE_BUDGET", 12)
    assert is_isometric_definite(a2, a2) is not None
    monkeypatch.setattr(enumeration, "NODE_BUDGET", 11)
    with pytest.raises(CapacityError,
                       match="isometry search tries more than "
                             "NODE_BUDGET = 11 candidate images"):
        is_isometric_definite(a2, a2)


def test_isometry_search_d8_against_e7_a1_is_bounded():
    # both even of rank 8 and det 4, not isometric; their root shells
    # differ in size, so the verdict needs no candidate search
    def cartan(n, edges):
        g = [[2 * (i == j) for j in range(n)] for i in range(n)]
        for i, j in edges:
            g[i][j] = g[j][i] = -1
        return QuadLattice(g)

    d8 = cartan(8, [(i, i + 1) for i in range(6)] + [(5, 7)])
    e7_a1 = cartan(8, [(i, i + 1) for i in range(5)] + [(2, 6)])
    assert d8.det == e7_a1.det == 4
    assert (len(vectors_of_norm(d8, 2)), len(vectors_of_norm(e7_a1, 2))) == \
        (112, 128)
    assert is_isometric_definite(d8, e7_a1) is None


def test_isometry_search_exhausts_the_candidates(monkeypatch):
    # det 8 both, and the same shells at l1's reduced diagonal norms 1 and
    # 3, so only the candidate search can refuse; norm 2 holds no vector of
    # l1 and two of l2, which certifies the refusal
    l1 = QuadLattice(((1, 0, 0), (0, 3, -1), (0, -1, 3)))
    l2 = QuadLattice(((1, -1, 0), (-1, 3, 0), (0, 0, 4)))
    assert l1.det == l2.det == 8
    h = l1._reduction[0]
    assert sorted(row[i] for i, row in enumerate(
        la.congruence(la.transpose(h), l1.gram))) == [1, 3, 3]
    for m in (1, 3):
        assert len(vectors_of_norm(l1, m)) == len(vectors_of_norm(l2, m))
    assert (len(vectors_of_norm(l1, 2)), len(vectors_of_norm(l2, 2))) == \
        (0, 2)
    assert is_isometric_definite(l1, l2) is None
    # the verdict came from the search: a zero budget stops it
    monkeypatch.setattr(enumeration, "NODE_BUDGET", 0)
    with pytest.raises(CapacityError, match="NODE_BUDGET = 0"):
        is_isometric_definite(l1, l2)


def test_isometry_search_random_pairs():
    rng = random.Random(19)
    done = 0
    while done < 10:
        n = rng.randint(2, 4)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if sympy_det(b) == 0:
            continue
        g = la.mat_mul(la.transpose(b), b)
        lat = QuadLattice(g)
        u = random_unimodular(n, rng, steps=6, size=1)
        twisted = QuadLattice(conjugate_gram(g, u))
        assert is_isometric_definite(lat, twisted) is not None
        done += 1


def test_find_vector_norm_prime_to_p():
    u = make_U()
    for p in (3, 5, 7):
        w = find_vector_norm_prime_to_p(u, p)
        assert w is not None
        assert inner_product(u, w, w) % p != 0
    assert find_vector_norm_prime_to_p(u, 2) is None
    assert find_vector_norm_prime_to_p(QuadLattice(((5,),)), 5) is None
    assert find_vector_norm_prime_to_p(QuadLattice(((25, 5), (5, 10))),
                                       5) is None
    for p in (4, 0):
        with pytest.raises(DomainError, match="not prime"):
            find_vector_norm_prime_to_p(QuadLattice(((0, 2), (2, 0))), p)


def test_find_vector_on_mukai_complements():
    rng = random.Random(23)
    for p in (5, 7):
        ns = make_rank1(2)
        v = hilbert_scheme_vector(2, ns)
        big = mukai_lattice(ns)
        perp, _ = orthogonal_complement(big, mukai_vector_embed(v, ns))
        w = find_vector_norm_prime_to_p(perp, p)
        assert w is not None
        assert inner_product(perp, w, w) % p != 0
