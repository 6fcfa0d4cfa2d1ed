import random
import time
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import jacobi_symbol
from sympy.ntheory.factor_ import find_carmichael_numbers_in_range

from k3lattice import (CapacityError, DomainError, empirical_density,
                       fermat_cubic_supersingular, field_discriminant,
                       is_inert, is_prime, is_ramified, kronecker_symbol,
                       sieve_primes, squarefree_part, union_inert_density)
from k3lattice.prime_density import (RHO_STEP_BUDGET, SIEVE_LIMIT,
                                     _strong_lucas_probable_prime, factorize)

# property tests stay deterministic so that tier-1 runs are reproducible
ORACLE = settings(derandomize=True, deadline=None, database=None,
                  max_examples=300)


def test_sieve_below_two_and_deviation_without_theory():
    assert sieve_primes(1) == [] and sieve_primes(0) == []
    rep = empirical_density(lambda p: p % 4 == 1, 100)
    assert rep.theoretical_density is None and rep.deviation() is None


def test_kronecker_examples():
    assert kronecker_symbol(-3, 7) == 1
    assert kronecker_symbol(-3, 5) == -1
    assert kronecker_symbol(42, 1) == 1
    assert kronecker_symbol(6, 3) == 0
    with pytest.raises(DomainError):
        kronecker_symbol(5, 0)


def test_kronecker_against_jacobi_oracle():
    rng = random.Random(5)
    for _ in range(300):
        a = rng.randint(-80, 80)
        n = 2 * rng.randint(0, 60) + 1
        assert kronecker_symbol(a, n) == jacobi_symbol(a, n)


def test_kronecker_two_and_negative():
    # (a | 2) follows the mod-8 rule
    assert kronecker_symbol(7, 2) == 1
    assert kronecker_symbol(3, 2) == -1
    assert kronecker_symbol(4, 2) == 0
    # bottom negativity only sees the sign of a
    assert kronecker_symbol(5, -1) == 1
    assert kronecker_symbol(-5, -1) == -1


def test_kronecker_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randint(-40, 40)
        b = rng.randint(-40, 40)
        n = rng.randint(1, 60)
        m = rng.randint(1, 60)
        assert kronecker_symbol(a * b, n) == \
            kronecker_symbol(a, n) * kronecker_symbol(b, n)
        if a != 0:
            assert kronecker_symbol(a, n * m) == \
                kronecker_symbol(a, n) * kronecker_symbol(a, m)


def test_squarefree_and_field_discriminant():
    assert squarefree_part(12) == 3
    assert squarefree_part(1) == 1
    assert squarefree_part(49) == 1
    assert field_discriminant(3) == -3
    assert field_discriminant(1) == -4
    assert field_discriminant(12) == -3
    assert field_discriminant(5) == -20


def test_is_inert_examples():
    assert is_inert(5, 3)
    assert not is_inert(7, 3)
    assert not is_inert(3, 3)
    assert is_ramified(3, 3)
    with pytest.raises(DomainError):
        is_inert(6, 3)
    with pytest.raises(DomainError, match="^4 is not prime$"):
        is_ramified(4, 3)


def test_fermat_criterion():
    assert fermat_cubic_supersingular(5)
    assert not fermat_cubic_supersingular(7)
    assert fermat_cubic_supersingular(11)
    with pytest.raises(DomainError):
        fermat_cubic_supersingular(3)
    with pytest.raises(DomainError):
        fermat_cubic_supersingular(9)


def test_fermat_matches_inertness():
    for p in sieve_primes(10 ** 5):
        if p == 3:
            continue
        assert fermat_cubic_supersingular(p) == is_inert(p, 3)


def test_union_density():
    assert union_inert_density([5]) == Fraction(1, 2)
    assert union_inert_density([5, 7, 11]) == Fraction(7, 8)
    values = [union_inert_density(sieve_primes(100)[:r])
              for r in range(1, 8)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < 1
    with pytest.raises(DomainError):
        union_inert_density([])
    with pytest.raises(DomainError):
        union_inert_density([5, 5])
    with pytest.raises(DomainError):
        union_inert_density([4])


def test_sieve():
    primes = sieve_primes(100)
    assert primes[:5] == [2, 3, 5, 7, 11]
    assert len(primes) == 25
    assert all(is_prime(p) for p in primes)


def test_sieve_limit():
    # refused before anything is allocated, however large the bound
    for bound in (SIEVE_LIMIT + 1, 10 ** 20):
        with pytest.raises(CapacityError,
                           match=f"sieve bound {bound} exceeds "
                                 f"SIEVE_LIMIT = {SIEVE_LIMIT}"):
            sieve_primes(bound)
        with pytest.raises(CapacityError):
            empirical_density(lambda p: True, bound)


def test_empirical_density_basics():
    rep = empirical_density(lambda p: True, 100)
    assert rep.empirical_density == 1
    with pytest.raises(DomainError):
        empirical_density(lambda p: True, 99)


def test_empirical_density_tolerance_at_1e4():
    rep = empirical_density(lambda p: p != 3 and p % 3 == 2, 10 ** 4,
                            Fraction(1, 2))
    assert rep.deviation() <= Fraction(2, 100)
    union = empirical_density(
        lambda p: is_inert(p, 5) or is_inert(p, 7) or is_inert(p, 11),
        10 ** 4, union_inert_density([5, 7, 11]))
    assert union.deviation() <= Fraction(2, 100)


def test_empirical_density_converges():
    theor = Fraction(1, 2)
    devs = []
    for bound in (10 ** 4, 10 ** 5):
        rep = empirical_density(lambda p: p != 3 and p % 3 == 2, bound,
                                theor)
        devs.append(rep.deviation())
    assert devs[1] < devs[0]


@ORACLE
@given(st.integers(-10, 10 ** 7))
def test_is_prime_against_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_fixed_cases_against_sympy():
    primes = [999999999989, 1000000000039, 999999999959]
    semiprimes = [999983 * 1000003, 999979 * 999983, 1000003 * 1000033]
    for n in (list(range(-10, 5000)) + primes + semiprimes
              + [p + 2 for p in primes]):
        assert is_prime(n) == sympy.isprime(n)
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in semiprimes)


@ORACLE
@given(st.integers(-10 ** 9, 10 ** 9).filter(bool))
def test_factorize_against_sympy(n):
    assert factorize(n) == sorted(sympy.factorint(abs(n)).items())


def test_factorize_rejects_zero():
    with pytest.raises(DomainError):
        factorize(0)


@ORACLE
@given(st.integers(1, 10 ** 9))
def test_squarefree_part_against_sympy(d):
    expected = 1
    for p, e in sympy.factorint(d).items():
        if e % 2 == 1:
            expected *= p
    assert squarefree_part(d) == expected


def _chernick_carmichaels(k0, count):
    """The first ``count`` Carmichael numbers (6k+1)(12k+1)(18k+1), k >= k0,
    whose three factors are prime (Chernick 1939)."""
    out = []
    k = k0
    while len(out) < count:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(f) for f in factors):
            out.append(prod(factors))
        k += 1
    return out


def test_is_prime_carmichael_numbers():
    # Fermat liars to every coprime base; the two scans reach the
    # Miller-Rabin range near 1e21 and the Baillie-PSW range past 3.3e24
    carmichaels = (
        find_carmichael_numbers_in_range(1, 10 ** 5)
        + _chernick_carmichaels(10 ** 6, 5)
        + _chernick_carmichaels(10 ** 8, 5))
    assert max(carmichaels) > 3317044064679887385961981
    for n in carmichaels:
        assert not sympy.isprime(n)
        assert not is_prime(n)


# psi_t, the least strong pseudoprime to the first t prime bases, at each t
# where is_prime changes its base set
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 3825123056546413051,
                       318665857834031151167461,
                       3317044064679887385961981)


def test_is_prime_strong_pseudoprimes_at_base_set_boundaries():
    for psi in STRONG_PSEUDOPRIMES:
        assert not is_prime(psi)
        for n in range(psi - 300, psi + 300):
            assert is_prime(n) == sympy.isprime(n), n


def test_strong_lucas_stops_at_a_factor_of_d():
    # (5 | 35) = 0 and 5 != 35, so 5 divides 35; at n = 5 itself the
    # search for D goes on to -7
    assert not _strong_lucas_probable_prime(35)
    assert _strong_lucas_probable_prime(5)


@ORACLE
@given(st.integers(64, 200).flatmap(lambda bits: st.tuples(
    st.integers(2 ** (bits - 1), 2 ** bits),
    st.integers(2 ** (bits // 2 - 1), 2 ** (bits // 2)))))
def test_is_prime_large_against_sympy(xy):
    # past 3317044064679887385961981 (about 2^81.5) this is Baillie-PSW
    x, y = xy
    p = sympy.nextprime(x)
    semiprime = sympy.nextprime(y) * sympy.nextprime(x // y)
    assert is_prime(p)
    assert not is_prime(semiprime)
    assert not is_prime(p * p)
    for n in (x, x | 1):
        assert is_prime(n) == sympy.isprime(n)


def _prime(bits_and_offset):
    bits, offset = bits_and_offset
    return sympy.nextprime(2 ** (bits - 1) + offset % 2 ** (bits - 1))


PRIMES_20_TO_40_BITS = st.tuples(st.integers(20, 40),
                                 st.integers(0, 2 ** 40)).map(_prime)


@settings(ORACLE, max_examples=40)
@given(st.lists(PRIMES_20_TO_40_BITS, min_size=2, max_size=3))
def test_factorize_products_of_primes_against_sympy(primes):
    n = prod(primes)
    assert factorize(n) == sorted(sympy.factorint(n).items())


@ORACLE
@given(PRIMES_20_TO_40_BITS, st.integers(2, 12), st.integers(1, 10 ** 6))
def test_factorize_prime_powers_against_sympy(p, k, m):
    for n in (p ** k, m * p ** k):
        assert factorize(n) == sorted(sympy.factorint(n).items())


def test_rho_step_budget_boundary(monkeypatch):
    # 1009 * 1013 survives trial division; Brent's rho with c = 1 splits it
    # in the r = 16 round, after r advance and r batch steps for r = 1, 2,
    # 4, 8, 16: 62 steps
    n = 1009 * 1013
    monkeypatch.setattr("k3lattice.prime_density.RHO_STEP_BUDGET", 62)
    assert factorize(n) == [(1009, 1), (1013, 1)]
    monkeypatch.setattr("k3lattice.prime_density.RHO_STEP_BUDGET", 61)
    with pytest.raises(CapacityError,
                       match="RHO_STEP_BUDGET = 61 Pollard-Brent steps on a "
                             "20-bit cofactor"):
        factorize(n)


def test_factorize_beyond_the_rho_budget_raises():
    # two 80-bit primes: rho would need about 2^40 steps
    n = sympy.nextprime(2 ** 79) * sympy.nextprime(2 ** 80)
    start = time.perf_counter()
    with pytest.raises(CapacityError,
                       match=f"RHO_STEP_BUDGET = {RHO_STEP_BUDGET} "
                             f"Pollard-Brent steps on a 160-bit cofactor"):
        factorize(n)
    assert time.perf_counter() - start < 30
