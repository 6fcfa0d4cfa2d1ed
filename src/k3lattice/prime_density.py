"""Splitting of primes in imaginary quadratic fields and empirical density
estimates over prime sieves.

Dirichlet densities of the Chebotarev sets handled here coincide with
natural densities, so the reports estimate them by counting primes up to a
bound.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError


def is_prime(n):
    """Trial-division primality test (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n):
    """Sorted (prime, exponent) pairs of |n| for n != 0, by trial division:
    the power of 2 first, then odd divisors only."""
    n = abs(n)
    if n == 0:
        raise DomainError("0 has no prime factorization")
    twos = (n & -n).bit_length() - 1
    out = [(2, twos)] if twos else []
    n >>= twos
    d = 3
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 2
    if n > 1:
        out.append((n, 1))
    return out


def kronecker_symbol(a, n):
    """The Kronecker symbol (a | n), by the standard recursion."""
    a = int(a)
    n = int(n)
    if n == 0:
        raise DomainError("(a | 0) is undefined")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # n is odd and positive: Jacobi symbol with reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def squarefree_part(d):
    """The squarefree kernel of a positive integer."""
    if d < 1:
        raise DomainError("d must be positive")
    out = 1
    for f, e in factorize(d):
        if e % 2 == 1:
            out *= f
    return out


def field_discriminant(d):
    """Discriminant of Q(sqrt(-d)) for a positive integer d: reduce d to
    its squarefree part d0, then -d0 if -d0 = 1 mod 4, else -4 d0."""
    d0 = squarefree_part(d)
    return -d0 if (-d0) % 4 == 1 else -4 * d0


def is_inert(p, d):
    """True iff the prime p is inert in Q(sqrt(-d)).

    Ramified primes (p dividing the field discriminant) return False.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return kronecker_symbol(field_discriminant(d), p) == -1


def is_ramified(p, d):
    """True iff p divides the discriminant of Q(sqrt(-d))."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return kronecker_symbol(field_discriminant(d), p) == 0


def fermat_cubic_supersingular(p):
    """Supersingularity of the Fermat cubic fourfold in characteristic p:
    true iff p = 2 mod 3, equivalently iff p is inert in Q(sqrt(-3))."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p == 3:
        raise DomainError("p = 3 divides the degree; not covered")
    return p % 3 == 2


def union_inert_density(primes):
    """Density of primes inert in at least one of Q(sqrt(-p_i)) for
    distinct primes p_i: exactly 1 - 2^-r by independence of the r
    quadratic conditions."""
    primes = list(primes)
    if not primes:
        raise DomainError("need at least one prime")
    if len(set(primes)) != len(primes):
        raise DomainError("primes must be distinct")
    for q in primes:
        if not is_prime(q):
            raise DomainError(f"{q} is not prime")
    r = len(primes)
    return Fraction(2 ** r - 1, 2 ** r)


def sieve_primes(bound):
    """All primes <= bound, by a basic Eratosthenes sieve."""
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    i = 2
    while i * i <= bound:
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
        i += 1
    return [i for i, f in enumerate(flags) if f]


@dataclass(frozen=True)
class PrimePredicateReport:
    """Empirical density of a prime predicate up to a bound."""

    bound: int
    total_primes: int
    hits: int
    empirical_density: Fraction
    theoretical_density: object  # Fraction or None

    def deviation(self):
        if self.theoretical_density is None:
            return None
        return abs(self.empirical_density - self.theoretical_density)


def empirical_density(predicate, bound, theoretical=None):
    """Count primes <= bound satisfying a predicate and report the
    empirical density next to an optional theoretical one."""
    if bound < 100:
        raise DomainError("bound must be at least 100")
    primes = sieve_primes(bound)
    hits = sum(1 for p in primes if predicate(p))
    return PrimePredicateReport(
        bound=bound,
        total_primes=len(primes),
        hits=hits,
        empirical_density=Fraction(hits, len(primes)),
        theoretical_density=theoretical,
    )
