import random
import time
import warnings
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import k3lattice._intlinalg as la
from helpers import (conjugate_gram, fraction_block_split,
                     pointed_isometry_search, random_even_gram,
                     random_unimodular, sympy_det, transvected)
from k3lattice import (DomainError, QuadLattice, StructureError,
                       UnverifiedHypothesisWarning, artin_invariant,
                       direct_sum, discriminant_group, is_even,
                       is_selfdual_at_p, jordan_decomposition, k3n_lattice,
                       make_E8, make_rank1, make_U, pointed_equivalent_at_p,
                       pointed_invariants, signature)
from k3lattice.lattice_core import block_diagonal
from k3lattice.local_arith import _block_split, _jordan_mod, _literal_planes
from k3lattice.prime_density import _val


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


def test_valuation_of_zero_is_refused():
    assert _val(Fraction(-18, 5), 3) == 2 and _val(Fraction(2, 45), 3) == -2
    with pytest.raises(ValueError, match="^valuation of zero$"):
        _val(0, 3)


def test_selfdual_examples():
    for n in (2, 3, 4, 7):
        lat = k3n_lattice(n)
        for p in (5, 7, 11, 13):
            assert is_selfdual_at_p(lat, p) == ((2 * n - 2) % p != 0)
    assert not is_selfdual_at_p(k3n_lattice(4), 3)
    assert is_selfdual_at_p(make_E8(), 2)


def test_selfdual_checks_prime():
    for p in (4, 1, 0, -5):
        with pytest.raises(DomainError, match=f"^{p} is not prime$"):
            is_selfdual_at_p(make_E8(), p)


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


def test_pointed_equivalent_refuses_signature_below_two_planes():
    # U + <2> has signature (2, 1), so it cannot contain U + U
    raw = QuadLattice(((0, 1, 0), (1, 0, 0), (0, 0, 2)))
    with pytest.raises(StructureError, match=r"signature \(2, 1\)"):
        pointed_equivalent_at_p(raw, (1, 1, 0), (0, 0, 1), 3)


def test_pointed_equivalent_warns_on_odd_skewed_lattice():
    # U + U + <1> with no literal plane left in its basis
    odd = QuadLattice(planeless(block_diagonal([U, U, [[1]]]),
                                random.Random(3)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert pointed_equivalent_at_p(odd, (1, 0, 0, 0, 0),
                                       (1, 0, 0, 0, 0), 3)
    assert [w.category for w in caught] == [UnverifiedHypothesisWarning]


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
    assert hash(inv_v) == hash(inv_w)
    assert len({inv_v, inv_w}) == 1
    w4 = [0] * 23
    w4[0], w4[1] = 1, 2
    assert inv_v != pointed_invariants(lam, w4)
    with pytest.raises(DomainError):
        pointed_invariants(lam, [2 * x for x in v])
    # another type is left to Python, which compares identity
    assert inv_v.__eq__(object()) is NotImplemented
    assert inv_v != object() and not inv_v == object()


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
    # witness bases are p-integral, and the congruence of each basis is the
    # oracle for its witness Gram: (unimodular) and p (unimodular)
    two = [[[0, 1], [1, 0]], [[2, 1], [1, 2]]]
    tower = block_diagonal(two + [[[2 * x for x in row] for row in b]
                                  for b in two])
    tower = conjugate_gram(tower, random_unimodular(8, random.Random(23)))
    # at p = 2 every pivot of this tower is an off-diagonal 2x2 block
    assert [(v, len(b)) for v, b, _ in _block_split(tower, 2)] == \
        [(0, 2), (0, 2), (1, 2), (1, 2)]
    for p, t in ((5, direct_sum(make_U(), QuadLattice(((0, 5), (5, 0))))),
                 (2, QuadLattice(tower))):
        res = artin_invariant(t, p)
        assert len(res.scaled_basis) == 2 * res.sigma
        for v, basis, gram in ((0, res.unscaled_basis, res.unscaled_gram),
                               (1, res.scaled_basis, res.scaled_gram)):
            for vec in basis:
                assert all(Fraction(x).denominator % p != 0 for x in vec)
            expect = la.congruence(la.transpose(basis), t.gram)
            # every pairing of the scaled basis lies in p Z_(p), so every
            # entry of either witness Gram is p-integral
            assert all(_val(x, p) >= v
                       for row in expect for x in row if x != 0)
            assert gram == tuple(tuple(x / p ** v for x in row)
                                 for row in expect)
            assert all(isinstance(x, Fraction) for row in gram for x in row)
            assert all(_val(x, p) >= 0 for row in gram for x in row if x != 0)
            assert _val(sympy_det(gram), p) == 0


def test_block_split_is_congruence():
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
            assert _val(sympy_det(vecs), p) == 0
            full = [[la.vec_mat_vec(x, g, y) for y in vecs] for x in vecs]
            for start, scale, block in offsets:
                r = len(block)
                for i in range(r):
                    for j in range(len(vecs)):
                        expect = block[i][j - start] \
                            if start <= j < start + r else 0
                        assert full[start + i][j] == expect
                assert _val(sympy_det(block), p) == scale * r


# property tests stay deterministic so that tier-1 runs are reproducible
ORACLE = settings(derandomize=True, deadline=None, database=None,
                  max_examples=150)


def block_split_jordan_data(gram, p):
    """Jordan data read off the exact rational splitting: per scale, the
    rank and the Legendre class of the product of the blocks' unit parts."""
    scales = {}
    for v, block, _ in _block_split(gram, p):
        x = block[0][0]
        num, den = x.numerator, x.denominator
        while num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
        rank, unit = scales.get(v, (0, 1))
        scales[v] = (rank + 1, unit * num * pow(den, -1, p) % p)
    return tuple((v, rank, sympy.legendre_symbol(unit, p))
                 for v, (rank, unit) in sorted(scales.items()))


def jordan_mod(gram, p):
    return _jordan_mod(gram, p, _val(la.det(gram), p))


def skewed(gram, rng, target):
    """gram under random unimodular conjugations, at least one and then
    more until an entry reaches target in absolute value."""
    gram = conjugate_gram(gram, random_unimodular(len(gram), rng))
    while max(abs(x) for row in gram for x in row) < target:
        gram = conjugate_gram(gram, random_unimodular(len(gram), rng))
    return gram


@st.composite
def local_grams(draw):
    """(p, gram): a nondegenerate symmetric Gram of rank <= 8 whose entries
    are small multiples of p^0 .. p^3."""
    p = draw(st.sampled_from((3, 5, 7, 11)))
    n = draw(st.integers(1, 8))
    entry = st.builds(lambda c, k: c * p ** k,
                      st.integers(-12, 12), st.integers(0, 3))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entry)
    assume(la.det(g) != 0)
    return p, g


@ORACLE
@given(local_grams())
def test_jordan_mod_matches_block_split(case):
    p, g = case
    assert jordan_mod(g, p) == block_split_jordan_data(g, p)


@st.composite
def skewed_towers(draw):
    """(p, gram): an orthogonal sum of 1x1, U-type and [[2,1],[1,2]]-type
    blocks, each times p^0 .. p^2, under up to 12 random transvections."""
    p = draw(st.sampled_from((2, 3, 5)))
    shapes = st.sampled_from(([[1]], [[-1]], [[3]], [[0, 1], [1, 0]],
                              [[2, 1], [1, 2]]))
    parts = draw(st.lists(st.tuples(shapes, st.integers(0, 2)),
                          min_size=1, max_size=5))
    g = block_diagonal([[[x * p ** k for x in row] for row in shape]
                        for shape, k in parts], 0)
    index = st.integers(0, len(g) - 1)
    steps = draw(st.lists(st.tuples(index, index, st.integers(-3, 3)),
                          max_size=12))
    return p, transvected(g, steps)


def block_split_against_reference(max_examples):
    """Check the integer split against the Fraction elimination on
    max_examples skewed towers; return which rare pivots they reached."""
    seen = set()

    @settings(ORACLE, max_examples=max_examples)
    @given(skewed_towers())
    def check(case):
        p, g = case
        split = _block_split(g, p)
        assert split == fraction_block_split(g, p)
        assert all(isinstance(x, Fraction) for _, block, basis in split
                   for row in block + basis for x in row)
        if any(len(block) == 2 for _, block, _ in split):
            seen.add("2x2 pivot")
        # the first step finds its least valuation only off the diagonal,
        # so at odd p it adds b_j to b_i
        least = min(_val(x, p) for row in g for x in row if x)
        if p != 2 and all(row[i] == 0 or _val(row[i], p) > least
                          for i, row in enumerate(g)):
            seen.add("odd-p b_i += b_j")

    check()
    return seen


def test_block_split_matches_fraction_reference():
    assert block_split_against_reference(200) == {"2x2 pivot",
                                                  "odd-p b_i += b_j"}


@ORACLE
@given(st.sampled_from((3, 5, 7, 11)),
       st.lists(st.tuples(st.integers(0, 4), st.integers(1, 10 ** 6)),
                max_size=5),
       st.integers(0, 3), st.integers(0, 2 ** 32))
def test_jordan_mod_known_answers(p, diagonal, k, seed):
    # sum of p^(k_i) <u_i> and p^k U: the scales, ranks and Legendre classes
    # are read off the construction, and the skew takes entries past p^K
    units = [(ki, u if u % p else u + 1) for ki, u in diagonal]
    blocks = [[[p ** ki * u]] for ki, u in units]
    blocks.append([[0, p ** k], [p ** k, 0]])
    expect = {k: (2, sympy.legendre_symbol(p - 1, p))}
    for ki, u in units:
        rank, cls = expect.get(ki, (0, 1))
        expect[ki] = (rank + 1, cls * sympy.legendre_symbol(u % p, p))
    vdet = 2 * k + sum(ki for ki, _ in units)
    g = skewed(block_diagonal(blocks), random.Random(seed),
               p ** (vdet + 2))
    assert jordan_mod(g, p) == tuple(
        (v, rank, cls) for v, (rank, cls) in sorted(expect.items()))


@pytest.mark.parametrize("p", [3, 5, 7, 1000003])
def test_jordan_mod_edge_cases(p):
    rng = random.Random(p)
    minus_one = sympy.legendre_symbol(p - 1, p)
    # a block at scale exactly v_p(det), which is the top of the precision
    assert jordan_mod([[1, 0], [0, p ** 5]], p) == ((0, 1, 1), (5, 1, 1))
    assert jordan_mod(skewed([[1, 0], [0, p ** 5]], rng, p ** 7), p) == \
        ((0, 1, 1), (5, 1, 1))
    # every diagonal valuation exceeds the minimum, at both scales, so each
    # first pivot needs the b_i += b_j step
    g = block_diagonal([[[p, 1], [1, p]], [[p * p, p], [p, p * p]]])
    assert all(g[i][i] % p == 0 for i in range(4))
    assert jordan_mod(g, p) == ((0, 2, minus_one), (1, 2, minus_one))
    # a p^2-scaled block next to unimodular and p-scaled ones
    g = block_diagonal([[[0, 1], [1, 0]], [[2]], [[-p]],
                        [[2 * p * p, 0], [0, -p * p]]])
    expect = ((0, 3, minus_one * sympy.legendre_symbol(2, p)),
              (1, 1, minus_one),
              (2, 2, sympy.legendre_symbol(-2 % p, p)))
    assert jordan_mod(skewed(g, rng, p ** 6), p) == expect


U = [[0, 1], [1, 0]]


def two_planes_verdict(lat):
    """What pointed_equivalent_at_p decides about U + U in the lattice:
    "no" (StructureError), "unverified" (a warning) or "yes"."""
    e = (1,) + (0,) * (lat.rank - 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            pointed_equivalent_at_p(lat, e, e, 3)
        except StructureError:
            return "no"
    if any(issubclass(w.category, UnverifiedHypothesisWarning)
           for w in caught):
        return "unverified"
    return "yes"


def planeless(gram, rng):
    """gram skewed until its basis holds no literal plane."""
    gram = skewed(gram, rng, 20)
    while _literal_planes(gram):
        gram = skewed(gram, rng, 20)
    return gram


def disc_generators(lat):
    return len(discriminant_group(lat).invariant_factors)


@ORACLE
@given(st.integers(0, 2 ** 32), st.integers(1, 4),
       st.sampled_from((0, 0, 1, -3)))
def test_u_plus_u_plus_m_is_never_disproved(seed, m_rank, odd):
    # U + U + M under a change of basis; certified when even with
    # r >= l + 5, whether or not literal planes survive the skew
    rng = random.Random(seed)
    blocks = [U, U, random_even_gram(rng, m_rank)] + [[[odd]]] * bool(odd)
    lat = QuadLattice(skewed(block_diagonal(blocks), rng, 20))
    verdict = two_planes_verdict(lat)
    assert verdict != "no"
    if is_even(lat) and lat.rank >= disc_generators(lat) + 5:
        assert verdict == "yes"


@ORACLE
@given(st.integers(0, 2 ** 32), st.integers(1, 6), st.sampled_from((0, 1)))
def test_signature_below_two_planes_is_disproved(seed, rank, odd):
    rng = random.Random(seed)
    lat = QuadLattice(block_diagonal([random_even_gram(rng, rank)]
                                     + [[[odd]]] * odd))
    assume(min(signature(lat)) <= 1)
    assert two_planes_verdict(lat) == "no"


@ORACLE
@given(st.integers(0, 2 ** 32), st.sampled_from((2, 3, 5)),
       st.lists(st.integers(-3, 3).filter(bool), max_size=2))
def test_scaled_planes_below_rank_l_plus_4_are_disproved(seed, p, diagonal):
    # U(p) + U(p) + <p c_1> + ...: every summand adds a generator
    up = [[0, p], [p, 0]]
    blocks = [up, up] + [[[p * c]] for c in diagonal]
    lat = QuadLattice(skewed(block_diagonal(blocks), random.Random(seed),
                             10 * p))
    assert lat.rank < disc_generators(lat) + 4
    assert two_planes_verdict(lat) == "no"


def test_two_planes_decided_from_the_gram_matrix():
    rng = random.Random(7)
    # literal planes certify an odd lattice too
    assert two_planes_verdict(QuadLattice(block_diagonal([U, U, [[1]]]))) \
        == "yes"
    # with no literal plane left, K3^[n] (r = 23, l = 1) and U + U (l = 0)
    # are certified by the discriminant form
    for gram in (k3n_lattice(2).gram, k3n_lattice(7).gram,
                 block_diagonal([U, U])):
        assert two_planes_verdict(QuadLattice(planeless(gram, rng))) == "yes"
    # an even lattice of rank l + 4 = 6 and an odd one are left open
    for blocks in ([U, U, [[2]], [[-2]]], [U, U, [[1]]]):
        lat = QuadLattice(planeless(block_diagonal(blocks), rng))
        assert two_planes_verdict(lat) == "unverified"
    # [[0, 1], [1, 1]] is <1> + <-1>, not U, so two of them are no literal
    # planes (their sum is odd unimodular, which contains no U + U)
    odd_planes = QuadLattice(block_diagonal([[[0, 1], [1, 1]]] * 2))
    assert not _literal_planes(odd_planes.gram)
    assert two_planes_verdict(odd_planes) == "unverified"
    # U + U(2): r = 4 < l + 4 = 6
    lat = QuadLattice(block_diagonal([U, [[0, 2], [2, 0]]]))
    assert two_planes_verdict(lat) == "no"
