import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (bisection_interval, pair_value,
                     perm_symmetrized_power, projected_recover_form)
from k3lattice import (CapacityError, DomainError, InconsistencyError,
                       SymmetrizedPowerForm, degree_to_bb, perfect_matchings,
                       recover_form, symmetrized_power)
from k3lattice.bb_form import INTERVAL_WIDTH, MAX_DEGREE_N, MAX_POWER_N


def _random_form(rng, r, denom=2):
    g = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            g[i][j] = g[j][i] = Fraction(rng.randint(-5, 5),
                                         rng.randint(1, denom))
    return g


def _random_nonisotropic(rng, g, r):
    while True:
        xi = [Fraction(rng.randint(-3, 3)) for _ in range(r)]
        norm = pair_value(g, xi, xi)
        if norm != 0:
            return xi, norm


def test_matching_counts():
    assert [perfect_matchings(n) for n in range(5)] == [1, 1, 3, 15, 105]
    for n in range(1, 7):
        assert (2 * n - 1) * perfect_matchings(n - 1) == perfect_matchings(n)
    with pytest.raises(DomainError, match="^n must be >= 0$"):
        perfect_matchings(-1)


def test_single_matching_is_the_form():
    g = [[2, 1], [1, -4]]
    a, b = [1, 2], [3, -1]
    assert symmetrized_power(g, 1, [a, b]) == pair_value(g, a, b)


def test_diagonal_value():
    g = [[2, 1], [1, -4]]
    a = [3, -2]
    q = pair_value(g, a, a)
    assert symmetrized_power(g, 2, [a] * 4) == 3 * q ** 2
    assert symmetrized_power(g, 3, [a] * 6) == 15 * q ** 3


def test_three_one_split():
    # w(x, x, x, z) = 3 q(x, x) q(x, z), cross-checked by the full
    # permutation sum
    rng = random.Random(2)
    for _ in range(10):
        g = _random_form(rng, 3)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        z = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        lhs = symmetrized_power(g, 2, [x, x, x, z])
        assert lhs == 3 * pair_value(g, x, x) * pair_value(g, x, z)
        assert lhs == perm_symmetrized_power(g, 2, [x, x, x, z])


def test_matching_equals_permutation_sum():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.choice([1, 2, 3])
        r = rng.randint(1, 4)
        g = _random_form(rng, r)
        args = [[Fraction(rng.randint(-3, 3)) for _ in range(r)]
                for _ in range(2 * n)]
        assert symmetrized_power(g, n, args) == \
            perm_symmetrized_power(g, n, args)
    # repeated arguments in the multiplicity patterns (2n), (2n-1, 1),
    # (2n-2, 1, 1), (2n-2, 2) and all distinct, in shuffled positions
    for n in (1, 2, 3):
        for mult in ((2 * n,), (2 * n - 1, 1), (2 * n - 2, 1, 1),
                     (2 * n - 2, 2), (1,) * (2 * n)):
            g = _random_form(rng, 3)
            kinds = []
            while len(kinds) < len(mult):
                v = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
                if v not in kinds:
                    kinds.append(v)
            args = [v for v, m in zip(kinds, mult) for _ in range(m)]
            rng.shuffle(args)
            assert symmetrized_power(g, n, args) == \
                perm_symmetrized_power(g, n, args)


def test_multilinearity_and_symmetry():
    rng = random.Random(19)
    g = _random_form(rng, 3)
    n = 2
    args = [[Fraction(rng.randint(-2, 2)) for _ in range(3)]
            for _ in range(4)]
    base = symmetrized_power(g, n, args)
    swapped = list(args)
    swapped[0], swapped[2] = swapped[2], swapped[0]
    assert symmetrized_power(g, n, swapped) == base
    u = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
    v = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
    lam = Fraction(3, 2)
    combo = [[a + lam * b for a, b in zip(u, v)]] + args[1:]
    expect = symmetrized_power(g, n, [u] + args[1:]) + \
        lam * symmetrized_power(g, n, [v] + args[1:])
    assert symmetrized_power(g, n, combo) == expect


def test_wrong_argument_count():
    with pytest.raises(DomainError):
        symmetrized_power([[1]], 2, [[1], [1]])


def test_orthogonality_detection():
    # w(xi,...,xi,a) = 0 iff q(xi, a) = 0
    rng = random.Random(23)
    for _ in range(15):
        r = rng.randint(2, 4)
        n = rng.choice([2, 3])
        g = _random_form(rng, r)
        xi, norm = _random_nonisotropic(rng, g, r)
        beta = [Fraction(rng.randint(-3, 3)) for _ in range(r)]
        # alpha := norm * beta - q(xi, beta) xi is orthogonal to xi
        c = pair_value(g, xi, beta)
        alpha = [norm * b - c * x for b, x in zip(beta, xi)]
        head = [xi] * (2 * n - 1)
        assert symmetrized_power(g, n, head + [alpha]) == 0
        if c != 0:
            val = symmetrized_power(g, n, head + [beta])
            assert val == perfect_matchings(n) * norm ** (n - 1) * c
            assert val != 0


def test_recover_form_roundtrip():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.choice([2, 3])
        r = rng.randint(2, 6)
        g = _random_form(rng, r)
        xi, norm = _random_nonisotropic(rng, g, r)
        rec = recover_form(lambda args: symmetrized_power(g, n, args),
                           n, xi, norm)
        assert [list(row) for row in rec] == g


def test_recover_form_degenerates_to_w_for_n1():
    g = [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(3)]]
    rec = recover_form(lambda args: symmetrized_power(g, 1, args),
                       1, [Fraction(1), Fraction(0)], Fraction(2))
    assert [list(row) for row in rec] == g


def test_recover_form_rejects_a_non_symmetric_w_for_n1():
    # at n = 1 every sample is an entry just read, so only w(b_0, b_1) =
    # w(b_1, b_0) tells this bilinear w from the form of a symmetric q
    g = [[2, 1], [3, -4]]
    with pytest.raises(InconsistencyError, match="samples are not generated"):
        recover_form(lambda args: pair_value(g, args[0], args[1]), 1,
                     [1, 0], 2)


def test_recover_form_rejects_zero_xi_norm():
    with pytest.raises(InconsistencyError):
        recover_form(lambda args: Fraction(0), 2,
                     [Fraction(1), Fraction(0)], 0)


def test_recover_form_rejects_inconsistent_samples():
    g = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]
    xi = [Fraction(1), Fraction(0)]

    def tampered(args):
        val = symmetrized_power(g, 2, args)
        if all(tuple(v) == (0, 1) for v in args):
            return val + 1
        return val

    with pytest.raises(InconsistencyError):
        recover_form(tampered, 2, xi, Fraction(2))
    # a wrong value of q(xi, xi) is also caught
    with pytest.raises(InconsistencyError):
        recover_form(lambda args: symmetrized_power(g, 2, args),
                     2, xi, Fraction(4))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.data())
def test_recover_form_rejects_a_wrong_xi_norm(data):
    # any claimed q(xi, xi) but the true one is an inconsistency, also for
    # an isotropic xi; for even n, -q has the same w, so -q(xi, xi) is not
    n = data.draw(st.integers(1, 3))
    r = data.draw(st.integers(1, 3))
    g = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            g[i][j] = g[j][i] = Fraction(data.draw(st.integers(-3, 3)))
    xi = [Fraction(data.draw(st.integers(-2, 2))) for _ in range(r)]
    true_norm = pair_value(g, xi, xi)
    allowed = {true_norm, -true_norm} if n % 2 == 0 else {true_norm}
    claimed = data.draw(st.integers(-6, 6).filter(lambda x: x not in allowed))
    with pytest.raises(InconsistencyError):
        recover_form(lambda args: symmetrized_power(g, n, args),
                     n, xi, claimed)


def test_power_n_bound():
    g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(-2)]]
    n = MAX_POWER_N
    a = [Fraction(1), Fraction(1)]
    assert symmetrized_power(g, n, [a] * (2 * n)) == \
        perfect_matchings(n) * pair_value(g, a, a) ** n
    with pytest.raises(CapacityError, match=f"MAX_POWER_N = {n}"):
        symmetrized_power(g, n + 1, [a] * (2 * n + 2))

    def w(args):
        raise AssertionError("w called past the n bound")

    with pytest.raises(CapacityError, match=f"MAX_POWER_N = {n}"):
        recover_form(w, n + 1, a, Fraction(2))


def test_degree_n_bound():
    n = MAX_DEGREE_N
    assert degree_to_bb(perfect_matchings(n) * 3 ** n, n).root == 3
    with pytest.raises(CapacityError, match=f"MAX_DEGREE_N = {n}"):
        degree_to_bb(10, n + 1)


# entries with denominators 1..6, so a form's common denominator and each
# argument's own one differ
ENTRIES = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def forms_and_vectors(draw, kinds=None):
    """(gram, n, vectors): a symmetric rank-r form with mixed denominators
    and distinct vectors to draw arguments from."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 4))
    g = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            g[i][j] = g[j][i] = draw(ENTRIES)
    k = kinds if kinds is not None else draw(st.integers(1, 2 * n))
    vectors = draw(st.lists(st.tuples(*[ENTRIES] * r), min_size=k,
                            max_size=k, unique=True))
    return g, n, vectors


PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150)


@PROPERTY
@given(forms_and_vectors(), st.data())
def test_repeated_arguments_as_one_object_or_equal_copies(case, data):
    g, n, vectors = case
    picks = [data.draw(st.integers(0, len(vectors) - 1))
             for _ in range(2 * n)]
    expect = perm_symmetrized_power(g, n, [vectors[i] for i in picks])
    form = SymmetrizedPowerForm(g, n)
    for spell in (lambda v: v, lambda v: tuple(list(v)), list):
        # the drawn tuples, then new tuples, then lists: one object per
        # vector repeated, then a new copy at every position
        same = [spell(v) for v in vectors]
        assert form([same[i] for i in picks]) == expect
        assert form([spell(vectors[i]) for i in picks]) == expect
    # rows are kept per value, not per argument object
    assert len(form._rows) == len(set(picks))
    assert SymmetrizedPowerForm(g, n)(
        [list(vectors[i]) for i in picks]) == expect


@PROPERTY
@given(forms_and_vectors(kinds=2), st.data())
def test_reused_form_after_a_list_argument_changed(case, data):
    # a list changed between calls must not be read through the row kept
    # for its old value; a new value equal to an argument seen before may
    # share that argument's row
    g, n, (u, v) = case
    form = SymmetrizedPowerForm(g, n)
    arg = list(u)
    args = [arg] * (2 * n - 1) + [v]
    assert form(args) == perm_symmetrized_power(g, n, args)
    for new in (data.draw(st.tuples(*[ENTRIES] * len(u))), v, u):
        arg[:] = new
        expect = perm_symmetrized_power(g, n, args)
        assert form(args) == expect
        assert form([tuple(x) for x in args]) == expect


@PROPERTY
@given(forms_and_vectors(), st.data())
def test_int_and_fraction_spellings_give_one_value(case, data):
    g, n, vectors = case
    vectors = [tuple(Fraction(x.numerator) for x in v) for v in vectors]
    picks = [data.draw(st.integers(0, len(vectors) - 1))
             for _ in range(2 * n)]
    args = [vectors[i] for i in picks]
    expect = perm_symmetrized_power(g, n, args)
    ints = [tuple(int(x) for x in v) for v in args]
    mixed = [v if t % 2 else ints[t] for t, v in enumerate(args)]
    form = SymmetrizedPowerForm(g, n)
    for spelled in (args, ints, mixed):
        assert form(spelled) == expect
    int_gram = [[x.numerator for x in row] for row in g]
    assert SymmetrizedPowerForm(int_gram, n)(ints) == \
        SymmetrizedPowerForm([[Fraction(x) for x in row]
                              for row in int_gram], n)(args)


def _basis_values_w(values, n, r):
    """The multilinear extension of w's values on the standard basis, keyed
    by sorted index multisets: each argument contracts one index."""
    def w(args):
        t = values
        for k, v in zip(range(2 * n - 1, -1, -1), args):
            t = {m: sum(x * t[tuple(sorted(m + (i,)))]
                        for i, x in enumerate(v) if x)
                 for m in combinations_with_replacement(range(r), k)}
        return t[()]
    return w


@st.composite
def recover_documents(draw):
    """(w, n, xi, xi_norm): w of a random rational q, or the multilinear
    extension of q's basis values with some of them tampered, sometimes
    one so that w(xi^{2n}) = 0; xi_norm is q(xi, xi) or perturbed."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, 4))
    g = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            g[i][j] = g[j][i] = draw(ENTRIES)
    xi = [Fraction(draw(st.integers(-2, 2))) for _ in range(r)]
    form = SymmetrizedPowerForm(g, n)
    w = form
    if draw(st.booleans()):
        units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        multisets = list(combinations_with_replacement(range(r), 2 * n))
        values = {m: form([units[i] for i in m]) for m in multisets}
        for m in draw(st.lists(st.sampled_from(multisets), max_size=2)):
            values[m] += draw(ENTRIES)
        support = [i for i, x in enumerate(xi) if x]
        if support and draw(st.booleans()):
            top = _basis_values_w(values, n, r)([xi] * (2 * n))
            m = tuple(sorted(draw(st.lists(st.sampled_from(support),
                                           min_size=2 * n,
                                           max_size=2 * n))))
            # m's coefficient in w(xi^{2n}): its orderings times xi^m
            orderings = factorial(2 * n) // prod(
                factorial(m.count(i)) for i in set(m))
            values[m] -= top / (orderings * prod(xi[i] for i in m))
        w = _basis_values_w(values, n, r)
    norm = pair_value(g, xi, xi)
    if draw(st.booleans()):
        norm += draw(ENTRIES)
    return w, n, xi, norm


def _recovered(recover, doc):
    """recover's q for doc, or the message of its InconsistencyError."""
    try:
        return recover(*doc)
    except InconsistencyError as e:
        return str(e)


# w(xi^4) = 0 but w(xi^3, e_0) = -w(xi^3, e_1) = -48: the closed form
# gives q = [[1, 2], [2, -5]], which passes every basis sample and fails
# only on q(xi, xi) = 0 != -16, while the projected q fails a basis sample
# first
ISOTROPIC_TOP = (_basis_values_w(
    {(0, 0, 0, 0): 3, (0, 0, 0, 1): 6, (0, 0, 1, 1): -29, (0, 1, 1, 1): 18,
     (1, 1, 1, 1): 75}, 2, 2), 2, [1, 1], -16)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(recover_documents())
@example(ISOTROPIC_TOP)
def test_recover_form_matches_projected_reference(doc):
    # the closed form and the projected vectors give the same q wherever
    # w(xi^{2n}) = c_n q(xi, xi)^n, which every accepted w satisfies, so
    # the same error too; where w(xi^{2n}) = 0 both q have q(xi, xi) = 0
    # and both raise, but a different check may fail first
    w, n, xi, _ = doc
    new = _recovered(recover_form, doc)
    old = _recovered(projected_recover_form, doc)
    if w([tuple(xi)] * (2 * n)) == 0:
        assert isinstance(new, str) and isinstance(old, str)
    else:
        assert new == old


def test_recover_form_evaluates_w_on_xi_and_unit_vectors():
    g = [[2, 1, 0], [1, 3, -1], [0, -1, 4]]
    xi = [1, 2, -1]
    units = {tuple(int(i == j) for j in range(3)) for i in range(3)}
    for n in (1, 2, 3):
        form = SymmetrizedPowerForm(g, n)
        seen = []

        def w(args):
            seen.extend(args)
            return form(args)

        rec = recover_form(w, n, xi, pair_value(g, xi, xi))
        assert [list(row) for row in rec] == g
        for v in seen:
            assert v == tuple(xi) or (
                v in units and all(type(x) is int for x in v))
        assert len(set(seen)) == len(xi) + 1


def test_form_rejects_vectors_of_the_wrong_length():
    w = SymmetrizedPowerForm([[2, 1], [1, -4]], 1)
    with pytest.raises(DomainError, match="length 2"):
        w([[1, 0], [1, 0, 0]])


def test_symmetrized_power_form_wrapper():
    w = SymmetrizedPowerForm(((2, 1), (1, -4)), 2)
    a = [Fraction(3), Fraction(-2)]
    q = pair_value([[2, 1], [1, -4]], a, a)
    assert w([a] * 4) == 3 * q ** 2
    assert w(iter([a] * 4)) == symmetrized_power(w.base_form, 2,
                                                 (a for _ in range(4)))
    same = SymmetrizedPowerForm([[2, 1], [1, -4]], 2)
    assert same == w and hash(same) == hash(w)
    assert SymmetrizedPowerForm(((2, 1), (1, -4)), 1) != w
    with pytest.raises(AttributeError):
        w.degree = 3
    with pytest.raises(DomainError):
        SymmetrizedPowerForm(((2, 1), (0, -4)), 2)
    with pytest.raises(DomainError):
        SymmetrizedPowerForm(((2,),), 0)


def test_degree_to_bb_examples():
    res = degree_to_bb(108, 2)
    assert res.root == 6 and res.is_integral
    assert degree_to_bb(2, 1).root == 2
    assert degree_to_bb(12, 2).root == 2
    with pytest.raises(DomainError):
        degree_to_bb(0, 2)
    with pytest.raises(DomainError):
        degree_to_bb(5, 0)


def test_degree_to_bb_roundtrip():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 4)
        x = Fraction(rng.randint(1, 30), rng.randint(1, 5))
        d = perfect_matchings(n) * x ** n
        res = degree_to_bb(d, n)
        assert res.root == x
        assert res.is_integral == (x.denominator == 1)
    # large roots, and their neighbours, against sympy's exact integer root
    for _ in range(20):
        n = rng.randint(1, 6)
        x = rng.randint(2, 10 ** rng.randint(10, 60))
        for d in (perfect_matchings(n) * x ** n,
                  perfect_matchings(n) * x ** n + 1, x ** n):
            res = degree_to_bb(d, n)
            target = Fraction(d, perfect_matchings(n))
            num, num_exact = sympy.integer_nthroot(target.numerator, n)
            den, den_exact = sympy.integer_nthroot(target.denominator, n)
            if num_exact and den_exact:
                assert res.root == Fraction(int(num), int(den))
                assert res.is_integral == (den == 1)
            else:
                assert res.root is None and not res.is_integral
                lo, hi = res.interval
                assert lo ** n < target < hi ** n


def test_degree_to_bb_interval_is_the_bisection_interval():
    rng = random.Random(41)
    seen = 0
    # roots below the interval width, then random degrees
    cases = [(Fraction(1, 10 ** 30), 2), (Fraction(2, 10 ** 40), 5)]
    for _ in range(300):
        cases.append((Fraction(rng.randint(1, 10 ** rng.randint(0, 60)),
                               rng.choice([1, rng.randint(1, 10 ** 6)])),
                      rng.choice([2, 3, 4, 5, 7, 12])))
    for d, n in cases:
        res = degree_to_bb(d, n)
        if res.root is None:
            seen += 1
            target = d / perfect_matchings(n)
            assert res.interval == bisection_interval(target, n,
                                                      INTERVAL_WIDTH)
    assert seen > 200


def test_degree_to_bb_large_degree_at_the_n_bound():
    # a 4300-digit degree at n = MAX_DEGREE_N; bisection from [0, h] would
    # take 2400 halvings here, each raising a 2400-bit fraction to the n
    d = 10 ** 4299 + 1
    lo, hi = degree_to_bb(d, MAX_DEGREE_N).interval
    target = Fraction(d, perfect_matchings(MAX_DEGREE_N))
    assert lo ** MAX_DEGREE_N < target < hi ** MAX_DEGREE_N
    assert 0 < hi - lo <= INTERVAL_WIDTH


def test_degree_to_bb_irrational():
    res = degree_to_bb(6, 2)  # 3 x^2 = 6 has no rational root
    assert res.root is None and not res.is_integral
    lo, hi = res.interval
    assert lo < hi
    assert hi - lo <= Fraction(1, 10 ** 6)
    assert 3 * lo ** 2 < 6 < 3 * hi ** 2
