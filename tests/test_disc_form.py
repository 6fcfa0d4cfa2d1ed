import random
from fractions import Fraction

import pytest

import k3lattice._intlinalg as la
from helpers import (congruence_isometry_instance, conjugate_gram,
                     random_even_gram, random_unimodular)
from k3lattice import (CapacityError, DomainError, QuadLattice,
                       StructureError, acts_trivially_on_disc, direct_sum,
                       disc_local_part, discriminant_group,
                       forms_isomorphic, isotropic_subgroups, k3n_lattice,
                       make_E8, make_rank1, make_U,
                       overlattice_from_isotropic, signature, is_even)
from k3lattice.disc_form import overlattice_basis


def test_discriminant_group_examples():
    assert discriminant_group(make_E8()).is_trivial
    assert discriminant_group(k3n_lattice(2)).invariant_factors == (2,)
    kummer = QuadLattice(((-6, -3), (-3, -6)))
    assert discriminant_group(kummer).invariant_factors == (3, 9)


def test_invariant_factor_product_is_det():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        g = random_even_gram(rng, n)
        lat = QuadLattice(g)
        assert discriminant_group(lat).order == abs(lat.det)


def test_disc_generator_contract():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(1, 3)
        lat = QuadLattice(random_even_gram(rng, n))
        form = discriminant_group(lat)
        gmat = [list(r) for r in lat.gram]
        for d, lift in zip(form.invariant_factors, form.generators):
            pairings = la.mat_vec(gmat, list(lift))
            assert all(x.denominator == 1 for x in pairings)  # lift in dual
            assert all((d * x).denominator == 1 for x in lift)
            for k in range(1, d):
                assert any((k * x).denominator != 1 for x in lift)
        # independence: a combination lies in the lattice only when every
        # coefficient is divisible by its invariant factor
        if not form.is_trivial:
            k = [rng.randrange(d) for d in form.invariant_factors]
            if any(k):
                combo = [sum(ki * gi[t] for ki, gi in
                             zip(k, form.generators)) for t in range(n)]
                assert any(x.denominator != 1 for x in combo)


def test_quadratic_value_examples():
    d = discriminant_group(make_rank1(-2))
    assert d.q_values == (Fraction(3, 2),)
    assert d.q((0,)) == 0
    d6 = discriminant_group(make_rank1(2 - 2 * 4))
    assert d6.q_values[0].denominator in (1, 2, 3, 6)
    assert d6.q_values == (Fraction(11, 6),)


def test_quadratic_value_scaling():
    rng = random.Random(9)
    for _ in range(20):
        g = random_even_gram(rng, rng.randint(1, 3))
        form = discriminant_group(QuadLattice(g))
        if form.is_trivial:
            continue
        for x in form.elements():
            qx = form.q(x)
            for a in range(-3, 4):
                ax = tuple(a * t for t in x)
                assert form.q(ax) == (a * a * qx) % form.modulus


def test_orthogonal_sum_of_forms():
    rng = random.Random(23)
    for _ in range(15):
        l1 = QuadLattice(random_even_gram(rng, rng.randint(1, 2)))
        l2 = QuadLattice(random_even_gram(rng, rng.randint(1, 2)))
        d1 = discriminant_group(l1)
        d2 = discriminant_group(l2)
        ds = discriminant_group(direct_sum(l1, l2))
        assert ds.order == d1.order * d2.order
        # q is the orthogonal sum: check on pure summand elements
        n1 = l1.rank
        for x in d1.elements():
            lift = d1.lift(x) + (Fraction(0),) * l2.rank
            val = la.vec_mat_vec(lift, direct_sum(l1, l2).gram, lift)
            assert Fraction(val) % d1.modulus == d1.q(x)


def test_isotropic_subgroups_examples():
    plus = direct_sum(make_rank1(2), make_rank1(2))
    subs = isotropic_subgroups(discriminant_group(plus))
    assert len(subs) == 1 and subs[0].order == 1

    mixed = direct_sum(make_rank1(2), make_rank1(-2))
    subs = isotropic_subgroups(discriminant_group(mixed))
    assert [s.order for s in subs] == [1, 2]
    assert subs[1].elements == ((0, 0), (1, 1))

    trivial = isotropic_subgroups(discriminant_group(make_E8()))
    assert len(trivial) == 1


def test_isotropic_subgroups_capacity():
    big = make_rank1(-20002)
    with pytest.raises(CapacityError):
        isotropic_subgroups(discriminant_group(big))


def test_isotropic_subgroups_deterministic():
    lat = direct_sum(make_U(), make_rank1(-8))
    form = discriminant_group(QuadLattice(
        conjugate_gram(lat.gram, random_unimodular(3, random.Random(1)))))
    once = isotropic_subgroups(form)
    twice = isotropic_subgroups(form)
    assert [s.elements for s in once] == [s.elements for s in twice]


def test_overlattice_glues_to_hyperbolic_invariants():
    lat = direct_sum(make_rank1(2), make_rank1(-2))
    subs = isotropic_subgroups(discriminant_group(lat))
    glued = overlattice_from_isotropic(lat, subs[1])
    assert glued.rank == 2
    assert glued.det == -1
    assert signature(glued) == (1, 1)
    assert is_even(glued)


def test_overlattice_trivial_subgroup():
    lat = direct_sum(make_rank1(2), make_rank1(-2))
    subs = isotropic_subgroups(discriminant_group(lat))
    assert overlattice_from_isotropic(lat, subs[0]).gram == lat.gram
    e8e8 = direct_sum(make_E8(), make_E8())
    only = isotropic_subgroups(discriminant_group(e8e8))
    assert len(only) == 1
    assert overlattice_from_isotropic(e8e8, only[0]).gram == e8e8.gram


def test_overlattice_odd_lattice_mod_z():
    # odd ambient lattice: isotropy lives in Q/Z; <1> + <-9> glues along
    # the order-3 subgroup to a unimodular lattice
    lat = direct_sum(make_rank1(1), make_rank1(-9))
    form = discriminant_group(lat)
    assert form.modulus == 1
    assert form.invariant_factors == (9,)
    assert all(0 <= form.q(x) < 1 for x in form.elements())
    subs = isotropic_subgroups(form)
    orders = sorted(s.order for s in subs)
    assert orders == [1, 3]
    glued = overlattice_from_isotropic(lat, subs[-1])
    assert abs(glued.det) == 1
    assert signature(glued) == (1, 1)


def test_overlattice_bijection_small():
    rng = random.Random(41)
    seen_instances = 0
    while seen_instances < 12:
        n = rng.randint(2, 3)
        g = random_even_gram(rng, n)
        lat = QuadLattice(g)
        form = discriminant_group(lat)
        if form.order > 100:
            continue
        subs = isotropic_subgroups(form)
        seen_instances += 1
        canonical = set()
        for sub in subs:
            basis = overlattice_basis(lat, sub)
            key = tuple(tuple(x for x in row) for row in basis)
            assert key not in canonical, "two subgroups glued to one lattice"
            canonical.add(key)
            out = overlattice_from_isotropic(lat, sub)
            assert abs(out.det) * sub.order ** 2 == abs(lat.det)
            order = discriminant_group(out).order
            assert order == form.order // sub.order ** 2


def test_overlattice_rejects_non_isotropic():
    from k3lattice import IsotropicSubgroup
    lat = direct_sum(make_rank1(2), make_rank1(2))
    form = discriminant_group(lat)
    bogus = IsotropicSubgroup(form, ((0, 0), (1, 0)))  # q = 1/2 on (1,0)
    with pytest.raises(StructureError):
        overlattice_from_isotropic(lat, bogus)


def test_acts_trivially_identity_and_swap():
    lat = direct_sum(make_rank1(2), make_rank1(2))
    m = 2
    assert acts_trivially_on_disc(lat, ((1, 0), (0, 1)), m)
    assert not acts_trivially_on_disc(lat, ((0, 1), (1, 0)), m)
    with pytest.raises(StructureError):
        acts_trivially_on_disc(lat, ((1, 1), (0, 1)), m)
    with pytest.raises(DomainError):
        # m = 1 does not kill the discriminant of <2> + <2>
        acts_trivially_on_disc(lat, ((1, 0), (0, 1)), 1)


def test_acts_trivially_on_congruence_isometries():
    rng = random.Random(67)
    for _ in range(30):
        gram, g, m = congruence_isometry_instance(rng, extra_rank=2)
        lat = QuadLattice(gram)
        assert all((g[i][j] - int(i == j)) % m == 0
                   for i in range(len(g)) for j in range(len(g)))
        assert acts_trivially_on_disc(lat, g, m)


def test_disc_local_part():
    kummer = QuadLattice(((-6, -3), (-3, -6)))
    form = discriminant_group(kummer)
    assert disc_local_part(form, 3).invariant_factors == (3, 9)
    assert disc_local_part(form, 2).is_trivial
    l4 = discriminant_group(k3n_lattice(4))
    assert disc_local_part(l4, 2).invariant_factors == (2,)
    assert disc_local_part(l4, 3).invariant_factors == (3,)
    # q restricts correctly: the 3-part generator of Z/6 is 2*gen
    part3 = disc_local_part(l4, 3)
    assert part3.q((1,)) == l4.q((2,))


def test_forms_isomorphic_under_base_change():
    rng = random.Random(13)
    for _ in range(12):
        n = rng.randint(1, 3)
        g = random_even_gram(rng, n)
        lat = QuadLattice(g)
        form = discriminant_group(lat)
        if form.order > 64:
            continue
        u = random_unimodular(n, rng)
        twisted = discriminant_group(QuadLattice(conjugate_gram(g, u)))
        assert forms_isomorphic(form, twisted)


def test_forms_not_isomorphic():
    d_plus = discriminant_group(make_rank1(2))
    d_minus = discriminant_group(make_rank1(-2))
    assert not forms_isomorphic(d_plus, d_minus)
    assert forms_isomorphic(d_plus, d_plus)
