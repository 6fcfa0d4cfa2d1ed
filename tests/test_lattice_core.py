import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import k3lattice._intlinalg as la
from helpers import (conjugate_gram, count_eliminations, random_even_gram,
                     random_unimodular, sympy_inverse, transvected)
from k3lattice import (DegenerateLatticeError, DomainError, QuadLattice,
                       as_vector, direct_sum, discriminant_group,
                       inner_product, is_even, is_isometry, is_primitive,
                       k3n_lattice, make_E8, make_rank1, make_U,
                       orthogonal_complement, signature)
from k3lattice.errors import InvalidGramError


def test_hyperbolic_plane():
    u = make_U()
    assert u.gram == ((0, 1), (1, 0))
    assert signature(u) == (1, 1)
    assert u.det == -1
    assert is_even(u)


def test_e8_invariants():
    e8 = make_E8()
    assert e8.det == 1
    assert signature(e8) == (0, 8)
    assert is_even(e8)
    assert discriminant_group(e8).is_trivial


def test_e8_frozen_basis():
    # the chosen Gram is part of the contract: branch node first, then the
    # arms of lengths 4, 2, 1
    expected = (
        (-2, 1, 0, 0, 0, 1, 0, 1),
        (1, -2, 1, 0, 0, 0, 0, 0),
        (0, 1, -2, 1, 0, 0, 0, 0),
        (0, 0, 1, -2, 1, 0, 0, 0),
        (0, 0, 0, 1, -2, 0, 0, 0),
        (1, 0, 0, 0, 0, -2, 1, 0),
        (0, 0, 0, 0, 0, 1, -2, 0),
        (1, 0, 0, 0, 0, 0, 0, -2),
    )
    assert make_E8().gram == expected


def test_rank1():
    assert make_rank1(-2).gram == ((-2,),)
    assert make_rank1(2 - 2 * 5).gram == ((-8,),)
    with pytest.raises(DegenerateLatticeError):
        make_rank1(0)


def test_gram_validation():
    with pytest.raises(InvalidGramError):
        QuadLattice(((0, 1), (2, 0)))
    with pytest.raises(InvalidGramError):
        QuadLattice(((0, 1),))
    with pytest.raises(DegenerateLatticeError):
        QuadLattice(((1, 1), (1, 1)))
    with pytest.raises(InvalidGramError,
                       match="^Gram matrix must be non-empty$"):
        QuadLattice([])


def test_repr_shows_rank_and_det():
    assert repr(make_U()) == "QuadLattice(rank=2, det=-1)"
    assert repr(make_E8()) == "QuadLattice(rank=8, det=1)"


def test_non_integral_input_is_refused():
    # nothing truncates: 5/2 does not become 2, nor 0.7 become 0
    with pytest.raises(InvalidGramError, match="5/2 is not an integer"):
        QuadLattice([[Fraction(5, 2)]])
    with pytest.raises(DomainError, match="0.7 is not an integer"):
        as_vector([0.7, 1])
    assert as_vector([Fraction(4, 2), 1.0]) == (2, 1)
    two = direct_sum(make_rank1(2), make_rank1(2))
    assert not is_isometry(two, [[Fraction(3, 2), 0], [0, 1]])
    assert is_isometry(two, [[0, Fraction(1)], [1, 0]])


def test_make_rank1_refuses_non_integral_m():
    # 2.5 does not become <2>
    with pytest.raises(DomainError, match="2.5 is not an integer"):
        make_rank1(2.5)
    assert make_rank1(Fraction(4, 2)).gram == ((2,),)


def test_direct_sum_det_and_signature():
    u, e8 = make_U(), make_E8()
    assert direct_sum(u, u).det == 1
    rng = random.Random(101)
    for _ in range(25):
        g1 = random_even_gram(rng, rng.randint(1, 3))
        g2 = random_even_gram(rng, rng.randint(1, 3))
        l1, l2 = QuadLattice(g1), QuadLattice(g2)
        s = direct_sum(l1, l2)
        assert s.det == l1.det * l2.det
        p1, n1 = signature(l1)
        p2, n2 = signature(l2)
        assert signature(s) == (p1 + p2, n1 + n2)


def test_direct_sum_of_any_number_of_lattices(monkeypatch):
    rng = random.Random(103)
    for count in (1, 3, 4):
        parts = [QuadLattice(random_even_gram(rng, rng.randint(1, 3)))
                 for _ in range(count)]
        assert direct_sum(*parts).gram == reduce(direct_sum, parts).gram
    # the Gram is built once and eliminated once, whatever the count
    parts = [make_U(), make_E8(), make_rank1(-6), make_U()]
    total, calls = count_eliminations(monkeypatch,
                                      lambda: direct_sum(*parts))
    assert calls == 1
    assert total.det == -6 and signature(total) == (2, 11)
    with pytest.raises(InvalidGramError,
                       match="^Gram matrix must be non-empty$"):
        direct_sum()


def test_k3n_lattice_is_one_direct_sum(monkeypatch):
    for n in range(1, 7):
        extra = [make_rank1(2 - 2 * n)] if n > 1 else []
        pairwise = reduce(direct_sum, [make_U(), make_U(), make_U(),
                                       make_E8(), make_E8(), *extra])
        lat, calls = count_eliminations(monkeypatch, lambda: k3n_lattice(n))
        assert lat.gram == pairwise.gram
        # U three times, E8 twice, <2 - 2n> for n > 1, and the sum
        assert calls == (7 if n > 1 else 6)


def test_k3n_lattice_shape():
    l1 = k3n_lattice(1)
    assert l1.rank == 22
    assert discriminant_group(l1).is_trivial
    l2 = k3n_lattice(2)
    assert l2.rank == 23
    assert signature(l2) == (3, 20)
    assert discriminant_group(k3n_lattice(4)).invariant_factors == (6,)
    with pytest.raises(DomainError):
        k3n_lattice(0)


def test_inner_product():
    u = make_U()
    assert inner_product(u, (1, 0), (0, 1)) == 1
    assert inner_product(u, (1, 1), (1, 1)) == 2
    e8 = make_E8()
    for i in range(8):
        basis = tuple(int(j == i) for j in range(8))
        assert inner_product(e8, basis, basis) == -2
    with pytest.raises(DomainError):
        inner_product(u, (1, 0, 0), (0, 1))


def test_is_primitive():
    u = make_U()
    assert is_primitive(u, (1, 0))
    assert not is_primitive(u, (2, 4))
    assert is_primitive(u, (3, 5))
    with pytest.raises(DomainError):
        is_primitive(u, (0, 0))


def test_orthogonal_complement_hyperbolic():
    comp, basis = orthogonal_complement(make_U(), (1, 1))
    assert comp.gram == ((-2,),)
    assert basis in (((1, -1),), ((-1, 1),))


def test_orthogonal_complement_rank1_is_zero():
    with pytest.raises(DomainError, match="complement .* is zero"):
        orthogonal_complement(make_rank1(2), (1,))


def test_orthogonal_complement_of_zero_vector_is_refused():
    with pytest.raises(DomainError, match="^cannot take the complement of "
                                          "the zero vector$"):
        orthogonal_complement(make_U(), (0, 0))


def test_orthogonal_complement_isotropic_degenerate():
    with pytest.raises(DegenerateLatticeError,
                       match="induced form on the complement is degenerate"):
        orthogonal_complement(make_U(), (1, 0))


def test_orthogonal_complement_k3_polarization():
    lam = k3n_lattice(1)
    v = [0] * 22
    v[0], v[1] = 1, 2  # norm 4 > 0 in the first hyperbolic plane
    comp, basis = orthogonal_complement(lam, v)
    assert comp.rank == 21
    assert signature(comp) == (2, 19)
    for row in basis:
        assert inner_product(lam, row, v) == 0


def test_orthogonal_complement_saturated():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 4)
        g = random_even_gram(rng, n)
        lat = QuadLattice(g)
        v = [rng.randint(-3, 3) for _ in range(n)]
        if all(x == 0 for x in v):
            v[0] = 1
        try:
            comp, basis = orthogonal_complement(lat, v)
        except DegenerateLatticeError:
            continue
        gv = la.mat_vec([list(r) for r in g], v)
        for row in basis:
            assert sum(a * b for a, b in zip(row, gv)) == 0
        # independent kernel vectors must be Z-combinations of the basis
        for i in range(n):
            for j in range(i + 1, n):
                x = [0] * n
                x[i], x[j] = gv[j], -gv[i]
                if all(t == 0 for t in x):
                    continue
                d, t = la.smith_normal_form([list(r) for r in basis])
                # solve c * basis = x over Z via the Smith transform
                tx = la.mat_vec(la.transpose(t), x)
                rank = len(basis)
                assert all(tx[k] % d[k][k] == 0 for k in range(rank))
                assert all(tx[k] == 0 for k in range(rank, n))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.integers(2, 6), st.data())
def test_orthogonal_complement_basis_is_orthogonal_and_saturated(n, data):
    # a random nondegenerate Gram and a primitive anisotropic v: the r - 1
    # basis rows are orthogonal to v and span a saturated sublattice, the
    # gcd of their maximal minors being 1
    ints = st.integers(-9, 9)
    upper = data.draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                               min_size=n, max_size=n))
    g = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    assume(sympy.Matrix(g).det() != 0)
    lat = QuadLattice(g)
    v = data.draw(st.lists(ints, min_size=n, max_size=n))
    assume(gcd(*v) == 1 and inner_product(lat, v, v) != 0)
    comp, basis = orthogonal_complement(lat, v)
    assert len(basis) == n - 1
    assert all(inner_product(lat, row, v) == 0 for row in basis)
    m = sympy.Matrix(basis)
    minors = [m.extract(list(range(n - 1)), list(cols)).det()
              for cols in combinations(range(n), n - 1)]
    assert gcd(*map(int, minors)) == 1
    assert comp.gram == tuple(tuple(inner_product(lat, x, y) for y in basis)
                              for x in basis)


@st.composite
def sparse_pointed_grams(draw):
    """(g, v): g is U^a + E8^b + <2 - 2n> as in K3^[n] type, or U + U + an
    even block, then skewed by up to four transvections; v is primitive and
    non-isotropic with at most six nonzero entries in -2..2."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        parts = ([make_U()] * draw(st.integers(1, 3))
                 + [make_E8()] * draw(st.integers(0, 2))
                 + ([make_rank1(2 - 2 * n)] if n > 1 else []))
    else:
        k = draw(st.integers(1, 4))
        ints = st.integers(-3, 3)
        upper = draw(st.lists(st.lists(ints, min_size=k, max_size=k),
                              min_size=k, max_size=k))
        block = [[upper[min(i, j)][max(i, j)] * (1 + (i == j))
                  for j in range(k)] for i in range(k)]
        assume(sympy.Matrix(block).det() != 0)
        parts = [make_U(), make_U(), QuadLattice(block)]
    g = direct_sum(*parts).gram
    index = st.integers(0, len(g) - 1)
    g = transvected(g, draw(st.lists(
        st.tuples(index, index, st.integers(-2, 2)), max_size=4)))
    v = [0] * len(g)
    for i, x in draw(st.lists(st.tuples(index, st.integers(-2, 2)),
                              min_size=1, max_size=6)):
        v[i] = x
    gm = sympy.Matrix(g)
    assume(gcd(*v) == 1 and (sympy.Matrix([v]) * gm * sympy.Matrix(v))[0])
    return g, v


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(sparse_pointed_grams())
def test_orthogonal_complement_against_sympy(case):
    # against sympy: the basis B is orthogonal to v, the complement Gram is
    # B G B^T, the basis is saturated (its maximal minors have gcd 1), and
    # |det v^perp| = |det G| v^2 / div(v)^2 with div(v) = gcd(G v)
    g, v = case
    comp, basis = orthogonal_complement(QuadLattice(g), v)
    r = len(g)
    gm, bm, vm = sympy.Matrix(g), sympy.Matrix(basis), sympy.Matrix(v)
    assert bm.shape == (r - 1, r)
    assert bm * gm * vm == sympy.zeros(r - 1, 1)
    assert sympy.Matrix(comp.gram) == bm * gm * bm.T
    minors_gcd = 0
    for cols in combinations(range(r), r - 1):
        minors_gcd = gcd(minors_gcd, int(bm.extract(list(range(r - 1)),
                                                    list(cols)).det()))
        if minors_gcd == 1:
            break
    assert minors_gcd == 1
    div = gcd(*map(int, gm * vm))
    norm = (vm.T * gm * vm)[0]
    assert abs(sympy.Matrix(comp.gram).det()) * div ** 2 == \
        abs(gm.det() * norm)


def test_invariants_under_base_change():
    rng = random.Random(53)
    for _ in range(25):
        n = rng.randint(2, 4)
        g = random_even_gram(rng, n)
        lat = QuadLattice(g)
        u = random_unimodular(n, rng)
        twisted = QuadLattice(conjugate_gram(g, u))
        assert twisted.det == lat.det
        assert signature(twisted) == signature(lat)
        assert is_even(twisted) == is_even(lat)
        v = [rng.randint(-3, 3) for _ in range(n)]
        if all(x == 0 for x in v):
            v[0] = 1
        uinv = sympy_inverse(u)
        w = [int(x) for x in la.mat_vec(uinv, v)]
        assert is_primitive(lat, v) == is_primitive(twisted, w)


def test_is_isometry():
    u = make_U()
    assert is_isometry(u, ((0, 1), (1, 0)))
    assert is_isometry(u, ((-1, 0), (0, -1)))
    assert not is_isometry(u, ((1, 1), (0, 1)))
    assert not is_isometry(u, ((1, 0),))


def test_even_lattice_parity_property():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(1, 4)
        g = random_even_gram(rng, n)
        lat = QuadLattice(g)
        assert is_even(lat)
        x = [rng.randint(-4, 4) for _ in range(n)]
        y = [rng.randint(-4, 4) for _ in range(n)]
        assert inner_product(lat, x, x) % 2 == 0
        sums = inner_product(lat, [a + b for a, b in zip(x, y)],
                             [a + b for a, b in zip(x, y)])
        assert (sums - inner_product(lat, x, x)
                - inner_product(lat, y, y)) % 2 == 0
    assert not is_even(QuadLattice(((1,),)))
    assert is_even(k3n_lattice(3))
