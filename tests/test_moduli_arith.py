import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_newton_slopes, count_eliminations,
                     isometry_with_gram_instance, random_even_gram)
from k3lattice import (DomainError, FrobeniusPairingInstance, MukaiVector,
                       QuadLattice, abel_jacobi_constants,
                       check_k3_crystal_pairing, cubic_primitive_lattice,
                       degree_to_bb, direct_sum, discriminant_group,
                       fermat_transcendental_lattice, forms_isomorphic,
                       inner_product, is_even, is_supersingular_newton,
                       k3n_lattice, make_E8, make_rank1, make_U,
                       mukai_lattice, mukai_pairing,
                       mukai_perp_disc_check, newton_polygon,
                       orthogonal_complement, signature)
from k3lattice.errors import InvalidGramError
from k3lattice.moduli_arith import hilbert_scheme_vector


def test_hilbert_vector_squares():
    ns = make_rank1(2)
    for n in range(1, 11):
        v = hilbert_scheme_vector(n, ns)
        assert mukai_pairing(v, v, ns) == 2 * n - 2
        assert mukai_pairing(v, v, ns) + 2 == 2 * n
    with pytest.raises(DomainError, match="^n must be >= 1$"):
        hilbert_scheme_vector(0, ns)


def test_pairing_formula():
    ns = make_rank1(2)
    v = MukaiVector(0, (3,), 0)
    assert mukai_pairing(v, v, ns) == 18
    a = MukaiVector(1, (1,), 2)
    b = MukaiVector(-2, (0,), 5)
    assert mukai_pairing(a, b, ns) == 0 - 1 * 5 - (-2) * 2
    assert mukai_pairing(a, b, ns) == mukai_pairing(b, a, ns)


def test_pairing_bilinear():
    rng = random.Random(3)
    ns = QuadLattice(random_even_gram(rng, 2))
    for _ in range(10):
        a = MukaiVector(rng.randint(-3, 3),
                        (rng.randint(-3, 3), rng.randint(-3, 3)),
                        rng.randint(-3, 3))
        b = MukaiVector(rng.randint(-3, 3),
                        (rng.randint(-3, 3), rng.randint(-3, 3)),
                        rng.randint(-3, 3))
        c = MukaiVector(a.r + 2 * b.r,
                        tuple(x + 2 * y for x, y in zip(a.c1, b.c1)),
                        a.s + 2 * b.s)
        probe = MukaiVector(1, (1, -1), -2)
        assert mukai_pairing(c, probe, ns) == \
            mukai_pairing(a, probe, ns) + 2 * mukai_pairing(b, probe, ns)


def test_mukai_lattice_shape():
    ns = make_rank1(2)
    big = mukai_lattice(ns)
    assert big.rank == 3
    assert big.det == -2
    p, n = signature(ns)
    assert signature(big) == (p + 1, n + 1)
    assert forms_isomorphic(discriminant_group(big),
                            discriminant_group(ns))


def test_mukai_perp_disc_check():
    ns = make_rank1(2)
    v = hilbert_scheme_vector(2, ns)
    rep = mukai_perp_disc_check(v, ns, 5)
    assert rep.orders_match
    assert rep.perp_p_exponent == rep.ns_p_exponent == 0
    with pytest.raises(DomainError):
        mukai_perp_disc_check(v, ns, 2)  # v^2 = 2
    # NS unimodular at p: both parts trivial
    rep2 = mukai_perp_disc_check(hilbert_scheme_vector(3, ns), ns, 7)
    assert rep2.perp_p_exponent == 0 and rep2.ns_p_exponent == 0


@pytest.mark.parametrize("p", [0, 4])
def test_mukai_perp_disc_check_rejects_non_prime_p(p):
    # p = 0 used to divide by zero, p = 4 to report a false mismatch
    ns = make_rank1(6)
    with pytest.raises(DomainError, match=f"^{p} is not prime$"):
        mukai_perp_disc_check(MukaiVector(1, (0,), -1), ns, p)


def test_mukai_perp_disc_check_random():
    rng = random.Random(17)
    done = 0
    while done < 20:
        r = rng.randint(1, 3)
        ns = QuadLattice(random_even_gram(rng, r))
        v = MukaiVector(rng.randint(-3, 3),
                        tuple(rng.randint(-3, 3) for _ in range(r)),
                        rng.randint(-3, 3))
        p = rng.choice([3, 5, 7])
        sq = mukai_pairing(v, v, ns)
        if sq == 0 or sq % p == 0:
            continue
        if all(x == 0 for x in (v.r,) + v.c1 + (v.s,)):
            continue
        rep = mukai_perp_disc_check(v, ns, p)
        assert rep.orders_match
        done += 1


def test_cubic_primitive_lattice():
    c = cubic_primitive_lattice()
    assert c.rank == 22
    assert signature(c) == (2, 20)
    assert discriminant_group(c).invariant_factors == (3,)
    assert is_even(c)


def test_cubic_primitive_lattice_is_one_direct_sum(monkeypatch):
    a2 = QuadLattice(((-2, -1), (-1, -2)))
    pairwise = reduce(direct_sum, [make_U(), make_U(), make_E8(), make_E8(),
                                   a2])
    lat, calls = count_eliminations(monkeypatch, cubic_primitive_lattice)
    assert lat.gram == pairwise.gram
    # U twice, E8 twice, A2(-1), and the sum
    assert calls == 6


def test_fermat_transcendental_lattice():
    t = fermat_transcendental_lattice()
    assert t.det == 27
    assert discriminant_group(t).invariant_factors == (3, 9)
    assert signature(t) == (0, 2)


def test_abel_jacobi_constants():
    c = abel_jacobi_constants()
    assert c.h4 == 3
    assert c.g_norm == 6
    assert c.g4 == 108
    assert degree_to_bb(c.g4, 2).root == c.g_norm


def test_hilbert_square_polarization_complement_report():
    # the norm-6 class in the K3^[2] lattice has a complement with the
    # cubic period lattice's signature; reported, not identified
    lam = k3n_lattice(2)
    g = [0] * 23
    g[0], g[1] = 1, 3  # norm 2*3 = 6 in the first hyperbolic plane
    assert inner_product(lam, g, g) == 6
    comp, _ = orthogonal_complement(lam, g)
    assert comp.rank == 22
    assert signature(comp) == signature(cubic_primitive_lattice())
    order = discriminant_group(comp).order
    assert order == abs(comp.det)


def test_newton_polygon_examples():
    p = 7
    assert newton_polygon([p * p, -2 * p, 1], p).slopes == \
        ((Fraction(1), 2),)
    assert newton_polygon([p * p, p, 1], p).slopes == ((Fraction(1), 2),)
    assert newton_polygon([p, -1, 1], p).slopes == \
        ((Fraction(0), 1), (Fraction(1), 1))
    # collinear points make one slope
    assert newton_polygon([1, 3, 9, 27], 3).slopes == ((Fraction(-1), 3),)
    assert newton_polygon([16, 0, 4, 0, 1], 2).slopes == ((Fraction(1), 4),)


def test_newton_polygon_refuses_non_integral_coefficients():
    # 15/2 does not become 7, whose polygon at 7 has slopes
    with pytest.raises(DomainError, match="7.5 is not an integer"):
        newton_polygon([15 / 2, -1, 1], 7)
    assert newton_polygon([7.0, -1, 1], 7) == newton_polygon([7, -1, 1], 7)


def test_newton_polygon_validation():
    with pytest.raises(DomainError):
        newton_polygon([0, 1, 1], 5)  # zero constant term
    with pytest.raises(DomainError):
        newton_polygon([0, 0], 5)
    with pytest.raises(DomainError):
        newton_polygon([1, 1, 0], 5)  # zero leading coefficient
    with pytest.raises(DomainError):
        newton_polygon([1, 1], 6)


def test_newton_polygon_fractional_slopes():
    # t^2 - p: valuations 1/2 with multiplicity 2
    p = 5
    assert newton_polygon([-p, 0, 1], p).slopes == ((Fraction(1, 2), 2),)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_newton_polygon_of_products():
    rng = random.Random(29)
    p = 5
    for _ in range(50):
        def rand_poly():
            deg = rng.randint(1, 3)
            coeffs = [rng.randint(-40, 40) for _ in range(deg)] + \
                [rng.choice([1, -1, p, 2])]
            while coeffs[0] == 0:
                coeffs[0] = rng.randint(-40, 40)
            return coeffs
        f = rand_poly()
        g = rand_poly()
        slopes = {}
        for poly in (f, g):
            for s, m in newton_polygon(poly, p).slopes:
                slopes[s] = slopes.get(s, 0) + m
        prod_slopes = dict(newton_polygon(_poly_mul(f, g), p).slopes)
        assert prod_slopes == slopes


def test_slope_multiplicities_sum_to_degree():
    rng = random.Random(31)
    for _ in range(20):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-100, 100) for _ in range(deg + 1)]
        if coeffs[0] == 0:
            coeffs[0] = 3
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        polygon = newton_polygon(coeffs, 3)
        assert polygon.degree == deg
        ss = [s for s, _ in polygon.slopes]
        assert ss == sorted(ss)


@st.composite
def newton_polynomials(draw):
    """(coeffs, p): nonzero end coefficients, zero inner ones, and runs of
    points on one line of slope s/d, the others on or above it."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    deg = draw(st.integers(1, 9))
    d = draw(st.integers(1, 3))
    s = draw(st.integers(-3, 3))
    base = draw(st.integers(0, 3)) + max(0, -s) * deg

    def unit():
        return draw(st.integers(1, 40).filter(lambda u: u % p)) \
            * draw(st.sampled_from([1, -1]))

    coeffs = []
    for i in range(deg + 1):
        line = base + (s * i + d - 1) // d  # least exponent on or above
        kind = draw(st.sampled_from(["line", "above", "zero", "free"]))
        if kind == "zero" and 0 < i < deg:
            coeffs.append(0)
        elif kind == "free":
            coeffs.append(unit() * p ** draw(st.integers(0, 6)))
        else:
            up = draw(st.integers(1, 3)) if kind == "above" else 0
            coeffs.append(unit() * p ** (line + up))
    return coeffs, p


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(newton_polynomials())
def test_newton_polygon_against_lower_envelope(case):
    coeffs, p = case
    assert newton_polygon(coeffs, p).slopes == brute_newton_slopes(coeffs, p)


def test_supersingularity_predicate():
    from math import comb
    p = 11
    pure = newton_polygon([comb(22, k) * (-p) ** (22 - k)
                           for k in range(23)], p)
    assert is_supersingular_newton(pure, 2)
    mixed = newton_polygon([p, -1, 1], p)
    assert not is_supersingular_newton(mixed, 2)
    slope2 = newton_polygon([p ** 4, 0, 1], p)  # valuations 2, 2
    assert is_supersingular_newton(slope2, 4)
    assert not is_supersingular_newton(slope2, 2)
    with pytest.raises(DomainError, match="^weight must be positive$"):
        is_supersingular_newton(slope2, 0)


def test_crystal_pairing_examples():
    p = 7
    u = ((0, 1), (1, 0))
    assert check_k3_crystal_pairing(
        FrobeniusPairingInstance(((p, 0), (0, p)), u, p))
    assert not check_k3_crystal_pairing(
        FrobeniusPairingInstance(((1, 0), (0, 1)), u, p))
    # fixture: F = [[0, p^2], [1, 0]] against the hyperbolic pairing
    inst = FrobeniusPairingInstance(((0, p * p), (1, 0)), u, p)
    assert check_k3_crystal_pairing(inst)


def test_crystal_pairing_random_scaled_isometries():
    rng = random.Random(37)
    for _ in range(20):
        gram, iso = isometry_with_gram_instance(rng, rank=4)
        p = rng.choice([3, 5, 7])
        f = [[p * x for x in row] for row in iso]
        inst = FrobeniusPairingInstance(f, gram, p)
        assert check_k3_crystal_pairing(inst)
        wrong = FrobeniusPairingInstance(iso, gram, p)
        assert not check_k3_crystal_pairing(wrong)


def test_crystal_pairing_validation():
    with pytest.raises(DomainError):
        FrobeniusPairingInstance(((1, 0), (0, 1)), ((0, 1), (2, 0)), 5)
    with pytest.raises(DomainError):
        FrobeniusPairingInstance(((1, 0),), ((2,),) * 2, 5)
    with pytest.raises(DomainError):
        FrobeniusPairingInstance(((1, 1), (1, 1)), ((1, 1), (1, 1)), 5)
    # an empty pairing would pass check_k3_crystal_pairing, det(()) being 1
    with pytest.raises(DomainError, match="pairing must be non-empty"):
        FrobeniusPairingInstance((), (), 5)
    for f in (((1, 0), (0, 1)), ((1, 0, 0), (0, 1), (0, 0, 1))):
        with pytest.raises(DomainError,
                           match="^frobenius must have the pairing's size$"):
            FrobeniusPairingInstance(f, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 5)
    for p in (4, 1, 0, -5):
        with pytest.raises(DomainError, match=f"^{p} is not prime$"):
            FrobeniusPairingInstance(((1, 0), (0, 1)), ((0, 1), (1, 0)), p)
    # non-integral entries are refused, not truncated
    with pytest.raises(DomainError, match="1/2 is not an integer"):
        FrobeniusPairingInstance(((Fraction(1, 2), 0), (0, 1)),
                                 ((0, 1), (1, 0)), 5)
    with pytest.raises(InvalidGramError, match="3/2 is not an integer"):
        FrobeniusPairingInstance(((1, 0), (0, 1)),
                                 ((0, Fraction(3, 2)), (Fraction(3, 2), 0)),
                                 5)


def test_mukai_vector_refuses_non_integral_c1():
    with pytest.raises(DomainError, match="1/2 is not an integer"):
        MukaiVector(1, (Fraction(1, 2),), 0)
