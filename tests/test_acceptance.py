"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its stated time budget.  Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction
from math import comb

from helpers import (congruence_isometry_instance, isometry_with_gram_instance,
                     pair_value, perm_symmetrized_power, random_even_gram)
from k3lattice import (FrobeniusPairingInstance, MukaiVector, QuadLattice,
                       acts_trivially_on_disc, artin_invariant,
                       check_k3_crystal_pairing, cubic_primitive_lattice,
                       degree_to_bb, direct_sum, discriminant_group,
                       empirical_density, fermat_transcendental_lattice,
                       is_even, is_inert, is_supersingular_newton,
                       isotropic_subgroups, k3n_lattice, make_E8, make_U,
                       make_rank1, mukai_pairing, mukai_perp_disc_check,
                       newton_polygon, overlattice_from_isotropic,
                       perfect_matchings, recover_form, signature,
                       symmetrized_power, union_inert_density,
                       vectors_of_norm)
from k3lattice.moduli_arith import hilbert_scheme_vector


def _report(num, text, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s"
    print(f"criterion {num:2d}: PASS ({text}, {elapsed:.2f}s)")


def test_criterion_01_k3n_discriminants():
    t0 = time.perf_counter()
    assert discriminant_group(k3n_lattice(1)).is_trivial
    for n in range(2, 13):
        form = discriminant_group(k3n_lattice(n))
        assert form.invariant_factors == (2 * n - 2,)
    _report(1, "disc of the K3^[n] lattices is Z/(2n-2)", t0, budget=1.0)


def test_criterion_02_e8():
    t0 = time.perf_counter()
    e8 = make_E8()
    assert is_even(e8)
    assert e8.det == 1
    assert signature(e8) == (0, 8)
    assert len(vectors_of_norm(e8, -2)) == 240
    _report(2, "E8 invariants and 240 roots", t0, budget=5.0)


def test_criterion_03_matching_constants_and_permutation_sum():
    t0 = time.perf_counter()
    assert [perfect_matchings(n) for n in (1, 2, 3, 4)] == [1, 3, 15, 105]
    rng = random.Random(303)
    for _ in range(50):
        n = rng.choice([1, 2, 3])
        r = rng.randint(1, 4)
        g = [[Fraction(0)] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                g[i][j] = g[j][i] = Fraction(rng.randint(-5, 5),
                                             rng.randint(1, 3))
        args = [[Fraction(rng.randint(-3, 3)) for _ in range(r)]
                for _ in range(2 * n)]
        assert symmetrized_power(g, n, args) == \
            perm_symmetrized_power(g, n, args)
    _report(3, "matching sum equals permutation sum, 50 instances", t0)


def test_criterion_04_roundtrip_100():
    t0 = time.perf_counter()
    rng = random.Random(404)
    for _ in range(100):
        n = rng.choice([2, 3])
        r = rng.randint(2, 6)
        g = [[Fraction(0)] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                g[i][j] = g[j][i] = Fraction(rng.randint(-5, 5),
                                             rng.randint(1, 2))
        while True:
            xi = [Fraction(rng.randint(-3, 3)) for _ in range(r)]
            norm = pair_value(g, xi, xi)
            if norm != 0:
                break
        rec = recover_form(lambda a: symmetrized_power(g, n, a),
                           n, xi, norm)
        assert [list(row) for row in rec] == g
    _report(4, "100 exact recovery roundtrips", t0, budget=30.0)


def test_criterion_05_degree_108():
    t0 = time.perf_counter()
    res = degree_to_bb(108, 2)
    assert res.root == 6 and res.is_integral
    assert perfect_matchings(2) * 6 ** 2 == 108
    _report(5, "degree 108 <-> norm 6 at n = 2", t0)


def test_criterion_06_mukai():
    t0 = time.perf_counter()
    ns0 = make_rank1(2)
    for n in range(1, 11):
        v = hilbert_scheme_vector(n, ns0)
        assert mukai_pairing(v, v, ns0) == 2 * n - 2
    rng = random.Random(606)
    done = 0
    while done < 20:
        r = rng.randint(1, 3)
        ns = QuadLattice(random_even_gram(rng, r))
        v = MukaiVector(rng.randint(-3, 3),
                        tuple(rng.randint(-3, 3) for _ in range(r)),
                        rng.randint(-3, 3))
        p = rng.choice([3, 5, 7, 11])
        sq = mukai_pairing(v, v, ns)
        if sq == 0 or sq % p == 0:
            continue
        assert mukai_perp_disc_check(v, ns, p).orders_match
        done += 1
    _report(6, "Hilbert-scheme vectors and 20 disc comparisons", t0)


def test_criterion_07_cubic_lattice():
    t0 = time.perf_counter()
    c = cubic_primitive_lattice()
    assert c.rank == 22
    assert signature(c) == (2, 20)
    assert discriminant_group(c).invariant_factors == (3,)
    assert is_even(c)
    _report(7, "cubic fourfold primitive lattice invariants", t0)


def test_criterion_08_fermat_lattice():
    t0 = time.perf_counter()
    f = fermat_transcendental_lattice()
    assert f.det == 27
    assert discriminant_group(f).invariant_factors == (3, 9)
    assert signature(f) == (0, 2)
    _report(8, "Fermat transcendental lattice invariants", t0)


def test_criterion_09_overlattice_glue():
    t0 = time.perf_counter()
    lat = direct_sum(make_rank1(2), make_rank1(-2))
    subs = isotropic_subgroups(discriminant_group(lat))
    nontrivial = [s for s in subs if s.order > 1]
    assert len(nontrivial) == 1
    glued = overlattice_from_isotropic(lat, nontrivial[0])
    assert glued.rank == 2
    assert is_even(glued)
    assert glued.det == -1
    assert signature(glued) == (1, 1)
    _report(9, "unique nontrivial even overlattice has the invariants "
            "of the hyperbolic plane", t0)


def test_criterion_10_newton_polygons():
    t0 = time.perf_counter()
    p = 13
    pure = newton_polygon([comb(22, k) * (-p) ** (22 - k)
                           for k in range(23)], p)
    assert pure.slopes == ((Fraction(1), 22),)
    assert is_supersingular_newton(pure, 2)
    assert newton_polygon([p, -1, 1], p).slopes == \
        ((Fraction(0), 1), (Fraction(1), 1))
    rng = random.Random(1010)

    def rand_poly():
        deg = rng.randint(1, 3)
        coeffs = [rng.randint(-60, 60) for _ in range(deg)] + \
            [rng.choice([1, -1, 2, p])]
        while coeffs[0] == 0:
            coeffs[0] = rng.randint(-60, 60)
        return coeffs

    for _ in range(50):
        f, g = rand_poly(), rand_poly()
        prod = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                prod[i + j] += x * y
        union = {}
        for poly in (f, g):
            for s, m in newton_polygon(poly, p).slopes:
                union[s] = union.get(s, 0) + m
        assert dict(newton_polygon(prod, p).slopes) == union
    _report(10, "pure slope, split slopes, and 50 product unions", t0)


def test_criterion_11_artin_invariants():
    t0 = time.perf_counter()
    for p in (5, 7, 13):
        for sigma in range(1, 11):
            t = None
            for _ in range(11 - sigma):
                t = make_U() if t is None else direct_sum(t, make_U())
            for _ in range(sigma):
                scaled = QuadLattice(((0, p), (p, 0)))
                t = scaled if t is None else direct_sum(t, scaled)
            res = artin_invariant(t, p)
            assert res.sigma == sigma
            assert res.superspecial == (sigma == 1)
    _report(11, "Artin invariants 1..10 at p in {5, 7, 13}", t0)


def test_criterion_12_densities():
    t0 = time.perf_counter()
    rep = empirical_density(lambda p: p != 3 and p % 3 == 2, 10 ** 6,
                            Fraction(1, 2))
    assert Fraction(49, 100) <= rep.empirical_density <= Fraction(51, 100)
    union = empirical_density(
        lambda p: is_inert(p, 5) or is_inert(p, 7) or is_inert(p, 11),
        10 ** 6, union_inert_density([5, 7, 11]))
    assert union.deviation() <= Fraction(1, 100)
    _report(12, "prime densities at 1e6 within tolerance", t0, budget=15.0)


def test_criterion_13_congruence_kernel():
    t0 = time.perf_counter()
    rng = random.Random(1313)
    for _ in range(100):
        extra = rng.choice([1, 2])
        gram, g, m = congruence_isometry_instance(rng, extra_rank=extra)
        lat = QuadLattice(gram)
        n = lat.rank
        assert all((g[i][j] - int(i == j)) % m == 0
                   for i in range(n) for j in range(n))
        assert acts_trivially_on_disc(lat, g, m)
    _report(13, "100 congruence isometries act trivially on disc", t0)


def test_criterion_14_crystal_pairing():
    t0 = time.perf_counter()
    for p in (3, 5, 7):
        gram = ((0, 1), (1, 0))
        assert check_k3_crystal_pairing(
            FrobeniusPairingInstance(((p, 0), (0, p)), gram, p))
        assert not check_k3_crystal_pairing(
            FrobeniusPairingInstance(((1, 0), (0, 1)), gram, p))
    rng = random.Random(1414)
    for _ in range(20):
        gram, iso = isometry_with_gram_instance(rng, rank=4)
        p = rng.choice([3, 5, 7])
        f = [[p * x for x in row] for row in iso]
        assert check_k3_crystal_pairing(
            FrobeniusPairingInstance(f, gram, p))
    _report(14, "Frobenius pairing compatibility", t0)
