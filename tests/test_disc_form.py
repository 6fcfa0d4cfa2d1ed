import random
from fractions import Fraction

import pytest

import k3lattice._intlinalg as la
from helpers import (brute_forms_isomorphic, brute_isotropic_subgroups,
                     congruence_isometry_instance, conjugate_gram,
                     finite_forms, random_even_gram, random_unimodular,
                     sympy_inverse)
from k3lattice import (CapacityError, DomainError, QuadLattice,
                       StructureError, acts_trivially_on_disc, direct_sum,
                       disc_local_part, discriminant_group,
                       forms_isomorphic, isotropic_subgroups, k3n_lattice,
                       make_E8, make_rank1, make_U,
                       overlattice_from_isotropic, signature, is_even)
from k3lattice.disc_form import MAX_GROUP_ORDER, overlattice_basis


def test_discriminant_group_examples():
    assert discriminant_group(make_E8()).is_trivial
    assert discriminant_group(k3n_lattice(2)).invariant_factors == (2,)
    kummer = QuadLattice(((-6, -3), (-3, -6)))
    assert discriminant_group(kummer).invariant_factors == (3, 9)


def test_discriminant_group_reads_the_kept_smith_form(monkeypatch):
    # the lattice makes its Smith form on first use, not when constructed,
    # and every later discriminant_group call reads the kept one
    real = la.smith_normal_form
    grams = []

    def counted(a):
        grams.append(tuple(map(tuple, a)))
        return real(a)

    monkeypatch.setattr(la, "smith_normal_form", counted)
    lat = k3n_lattice(3)
    assert grams == []
    assert discriminant_group(lat) == discriminant_group(lat)
    assert grams == [lat.gram]


def test_invariant_factor_product_is_det():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        g = random_even_gram(rng, n)
        lat = QuadLattice(g)
        assert discriminant_group(lat).order == abs(lat.det)


def _generator_lifts(form):
    """The rational lift of each invariant-factor generator."""
    k = len(form.invariant_factors)
    return [form.lift(tuple(int(i == j) for j in range(k)))
            for i in range(k)]


def test_disc_generator_contract():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(1, 3)
        lat = QuadLattice(random_even_gram(rng, n))
        form = discriminant_group(lat)
        gmat = [list(r) for r in lat.gram]
        lifts = _generator_lifts(form)
        for d, lift in zip(form.invariant_factors, lifts):
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
                combo = [sum(ki * gi[t] for ki, gi in zip(k, lifts))
                         for t in range(n)]
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
    with pytest.raises(CapacityError, match="MAX_GROUP_ORDER = 10000"):
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
    with pytest.raises(DomainError, match="^m must be positive$"):
        acts_trivially_on_disc(lat, ((1, 0), (0, 1)), 0)


def test_acts_trivially_refuses_non_integral_input():
    # 1.9 does not become 1, nor m = 6.5 become 6
    lat = QuadLattice(((2, 0), (0, 6)))
    with pytest.raises(DomainError, match="1.9 is not an integer"):
        acts_trivially_on_disc(lat, [[1.9, 0], [0, 1]], 6)
    with pytest.raises(DomainError, match="6.5 is not an integer"):
        acts_trivially_on_disc(lat, [[1, 0], [0, 1]], 6.5)
    assert acts_trivially_on_disc(lat, [[1.0, 0], [0, 1]], Fraction(6))


def test_reduce_refuses_non_integral_elements():
    form = discriminant_group(QuadLattice(((2, 0), (0, 4))))
    assert form.reduce((3, -1)) == (1, 3)
    with pytest.raises(DomainError, match="1/2 is not an integer"):
        form.reduce((Fraction(1, 2), Fraction(7, 2)))
    with pytest.raises(DomainError, match="expected 2"):
        form.reduce((1,))


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


def test_disc_local_part_rejects_a_non_prime():
    # ell = 1 would loop, 0 divide by zero, and 4 or 6 return a part that
    # is not the primary component
    form = discriminant_group(direct_sum(make_rank1(12), make_rank1(36)))
    for ell in (1, 0, -2, 4, 6):
        with pytest.raises(DomainError, match=f"{ell} is not prime"):
            disc_local_part(form, ell)
    with pytest.raises(DomainError):
        disc_local_part(discriminant_group(make_rank1(8)), 4)


def test_forms_isomorphic_under_base_change():
    rng = random.Random(13)
    for _ in range(12):
        n = rng.randint(1, 3)
        g = random_even_gram(rng, n)
        lat = QuadLattice(g)
        form = discriminant_group(lat)
        if form.order > 1024:
            continue
        u = random_unimodular(n, rng)
        twisted = discriminant_group(QuadLattice(conjugate_gram(g, u)))
        assert forms_isomorphic(form, twisted)


def test_forms_not_isomorphic():
    d_plus = discriminant_group(make_rank1(2))
    d_minus = discriminant_group(make_rank1(-2))
    assert not forms_isomorphic(d_plus, d_minus)
    assert forms_isomorphic(d_plus, d_plus)


def test_forms_with_other_groups_or_moduli_are_not_isomorphic():
    # decided before any element is listed: Z/2 against Z/4, and the even
    # <2> (q in Q/2Z) against the odd <2> + <1> (q in Q/Z), both Z/2
    two, four = (discriminant_group(make_rank1(m)) for m in (2, 4))
    odd = discriminant_group(direct_sum(make_rank1(2), make_rank1(1)))
    assert two.invariant_factors == odd.invariant_factors == (2,)
    assert (two.modulus, odd.modulus) == (2, 1)
    assert not forms_isomorphic(two, four)
    assert not forms_isomorphic(two, odd)
    assert not forms_isomorphic(odd, two)


def test_forms_isomorphic_group_order_limit():
    at_limit = discriminant_group(make_rank1(MAX_GROUP_ORDER))
    assert forms_isomorphic(at_limit, at_limit)
    past = discriminant_group(make_rank1(-MAX_GROUP_ORDER - 1))
    with pytest.raises(CapacityError,
                       match=f"group of order {MAX_GROUP_ORDER + 1} exceeds "
                             f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER}"):
        forms_isomorphic(past, past)


def _check_against_the_oracle(forms):
    """Bucket the forms by their sorted (element order, q) pairs: every form
    is isomorphic to its bucket's first form, and no two first forms are
    isomorphic, both by forms_isomorphic and by the exhaustive search.
    Returns the number of buckets."""
    buckets = {}
    for form in forms:
        key = tuple(sorted((form.element_order(x), form.q(x))
                           for x in form.elements()))
        buckets.setdefault(key, []).append(form)
    firsts = [bucket[0] for bucket in buckets.values()]
    for first, *rest in buckets.values():
        for form in rest:
            assert forms_isomorphic(first, form)
            assert brute_forms_isomorphic(first, form)
    for i, f1 in enumerate(firsts):
        for f2 in firsts[i + 1:]:
            assert not forms_isomorphic(f1, f2)
            assert not brute_forms_isomorphic(f1, f2)
    return len(firsts)


ORACLE_GROUPS = [
    (2,), (4,), (8,), (16,), (2, 2), (2, 4), (4, 4), (2, 8), (4, 8),
    (2, 2, 2), (2, 2, 4), (2, 4, 8), (2, 2, 8), (3,), (9,), (27,), (3, 3),
    (3, 9), (5,), (25,), (5, 5), (6,), (12,), (2, 6), (2, 12)]


@pytest.mark.parametrize("modulus", [1, 2])
def test_forms_isomorphic_matches_the_search_on_every_small_form(modulus):
    classes = {factors: _check_against_the_oracle(
        finite_forms(factors, modulus)) for factors in ORACLE_GROUPS}
    # <1/2> and <3/2> differ only in q, not in q mod 1
    assert classes[(2,)] == modulus


def test_forms_isomorphic_matches_the_search_on_sampled_forms():
    rng = random.Random(113)
    for factors in [(2, 4, 8), (4, 4, 4), (2, 2, 2, 4)]:
        for modulus in (1, 2):
            forms = list(finite_forms(factors, modulus))
            _check_against_the_oracle(rng.sample(forms, 30))


def test_odd_forms_isomorphic_under_base_change():
    # modulus-1 forms: an odd Gram and its base change, with local parts
    rng = random.Random(19)
    seen = 0
    while seen < 12:
        n = rng.randint(1, 3)
        g = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        g = [[g[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        g[0][0] = 2 * rng.randint(-3, 3) + 1
        if la.det(g) == 0:
            continue
        form = discriminant_group(QuadLattice(g))
        if form.is_trivial or form.order > 1024:
            continue
        seen += 1
        twisted = discriminant_group(QuadLattice(
            conjugate_gram(g, random_unimodular(n, rng))))
        assert form.modulus == twisted.modulus == 1
        assert forms_isomorphic(form, twisted)
        for ell in (2, 3, 5, 7):
            if form.order % ell == 0:
                assert forms_isomorphic(disc_local_part(form, ell),
                                        disc_local_part(twisted, ell))


def test_odd_forms_not_isomorphic():
    d_plus = discriminant_group(make_rank1(3))
    d_minus = discriminant_group(make_rank1(-3))
    assert d_plus.q_values == (Fraction(1, 3),)
    assert d_minus.q_values == (Fraction(2, 3),)
    assert not forms_isomorphic(d_plus, d_minus)
    assert forms_isomorphic(d_minus, d_minus)


def test_form_fields_are_integers_over_the_exponent():
    rng = random.Random(107)
    for _, form in _small_forms(rng, 30, max_order=10 ** 6):
        assert form.exponent == (form.invariant_factors or (1,))[-1]
        for row in form.generators + form.table:
            assert all(type(x) is int for x in row)


def _small_forms(rng, count, max_order=64):
    """(lattice, form) pairs for random even and odd Grams of rank <= 4,
    with the local parts of each form; the odd ones carry an odd rank-1
    summand before the change of basis."""
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            g = random_even_gram(rng, n)
        else:
            g = [[0] * n for _ in range(n)]
            g[0][0] = 2 * rng.randint(-3, 3) + 1
            if n > 1:
                rest = random_even_gram(rng, n - 1)
                for i in range(n - 1):
                    for j in range(n - 1):
                        g[1 + i][1 + j] = rest[i][j]
            g = conjugate_gram(g, random_unimodular(n, rng, steps=6, size=1))
        lat = QuadLattice(g)
        form = discriminant_group(lat)
        if form.order > max_order:
            continue
        out.append((lat, form))
        out.extend((lat, disc_local_part(form, ell))
                   for ell in (2, 3, 5, 7) if form.order % ell == 0)
    return out


def test_table_values_match_ambient_evaluation():
    # q and pair read the k x k table; the oracle evaluates the lifts with
    # the ambient Gram instead
    rng = random.Random(83)
    forms = _small_forms(rng, 40)
    assert any(f.modulus == 1 for _, f in forms)
    assert any(f.modulus == 2 for _, f in forms)
    for lat, form in forms:
        elements = list(form.elements())
        lifts = {x: form.lift(x) for x in elements}
        for x in elements:
            amb = la.vec_mat_vec(lifts[x], lat.gram, lifts[x])
            assert form.q(x) == Fraction(amb) % form.modulus
            for y in elements:
                amb = la.vec_mat_vec(lifts[x], lat.gram, lifts[y])
                assert form.pair(x, y) == (2 * Fraction(amb)) % form.modulus


def test_table_is_exact_generator_pairing():
    rng = random.Random(89)
    for lat, form in _small_forms(rng, 40, max_order=10 ** 6):
        k = len(form.invariant_factors)
        assert len(form.table) == k
        for i, gi in enumerate(form.generators):
            for j, gj in enumerate(form.generators):
                assert form.table[i][j] == la.vec_mat_vec(gi, lat.gram, gj)


def test_disc_generators_are_reduced():
    # each SNF lift t_i/d_i is taken as (t_i mod d_i)/d_i
    rng = random.Random(97)
    for _ in range(30):
        g = random_even_gram(rng, rng.randint(1, 4), spread=6)
        form = discriminant_group(QuadLattice(g))
        for d, lift in zip(form.invariant_factors, _generator_lifts(form)):
            assert all(0 <= d * x < d for x in lift)


def test_isotropic_subgroups_match_brute_force():
    rng = random.Random(101)
    forms = [f for _, f in _small_forms(rng, 25)]
    u2 = QuadLattice(((0, 2), (2, 0)))
    u2_cubed = discriminant_group(direct_sum(direct_sum(u2, u2), u2))
    assert u2_cubed.order == 64
    forms.append(u2_cubed)
    for form in forms:
        subs = isotropic_subgroups(form)
        assert [s.elements for s in subs] == brute_isotropic_subgroups(form)
    assert len(isotropic_subgroups(u2_cubed)) == 171


def test_acts_trivially_m_matches_dual_criterion():
    # m * L^v <= L read from the exponent of the discriminant group agrees
    # with the rational-inverse criterion
    rng = random.Random(103)
    for _ in range(40):
        n = rng.randint(1, 4)
        g = random_even_gram(rng, n)
        lat = QuadLattice(g)
        ginv = sympy_inverse(g)
        form = discriminant_group(lat)
        exponent = form.invariant_factors[-1] if not form.is_trivial else 1
        identity = la.identity(n)
        for m in range(1, 2 * exponent + 1):
            kills = all((m * x).denominator == 1 for row in ginv for x in row)
            if kills:
                assert acts_trivially_on_disc(lat, identity, m)
            else:
                with pytest.raises(DomainError, match="m does not satisfy"):
                    acts_trivially_on_disc(lat, identity, m)
