"""Splitting of primes in imaginary quadratic fields and empirical density
estimates over prime sieves, on top of the library's one primality test
(``is_prime``, checked by ``check_prime``), one factoring (``factorize``)
and one p-adic valuation (``_val``), which every other module imports.

Dirichlet densities of the Chebotarev sets handled here coincide with
natural densities, so the reports estimate them by counting primes up to a
bound.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import Budget, DomainError, check_limit


# The first 13 primes: trial divisors and Miller-Rabin bases of is_prime.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_t, the least strong pseudoprime to the first t prime bases, for the t
# where it grows (Jaeschke 1993; Sorenson-Webster 2017): below psi_t the
# first t primes decide primality exactly.
_MR_LIMITS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
              (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
              (3825123056546413051, 9), (318665857834031151167461, 12),
              (3317044064679887385961981, 13))

# Pollard-Brent steps (evaluations of x -> x^2 + c) one factorize call may
# spend; the expected cost of splitting off a prime q is about sqrt(q)
# steps, so this clears factors up to about 40 bits.
RHO_STEP_BUDGET = 1 << 22

# Steps of Brent's rho between two gcds.
_RHO_BATCH = 128

# factorize divides out the primes up to this bound before running rho.
_TRIAL_BOUND = 1000

# sieve_primes raises CapacityError above this bound: the sieve holds a byte
# per integer and a list of the primes found.
SIEVE_LIMIT = 10 ** 7


def _strong_probable_prime(n, a):
    """Strong Fermat test of the odd n > 2 to base a."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(a, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n):
    """Strong Lucas test of the odd n > 2 that is not a square, with
    Selfridge's parameters: the first D in 5, -7, 9, -11, ... with
    (D | n) = -1, P = 1 and Q = (1 - D) / 4."""
    D = 5
    while True:
        j = kronecker_symbol(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k and Q^k for k the leading bits of d, P = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n if U & 1 else U) >> 1
            V = (V + n if V & 1 else V) >> 1
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n):
    """Primality of an integer: trial division by the first 13 primes,
    then Miller-Rabin with the first t prime bases, exact below psi_t; above
    3317044064679887385961981 = psi_13, the Baillie-PSW test (a strong
    base-2 test and a strong Lucas test), for which no counterexample is
    known."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    for limit, t in _MR_LIMITS:
        if n < limit:
            return all(_strong_probable_prime(n, a)
                       for a in _SMALL_PRIMES[:t])
    r = isqrt(n)
    return (r * r != n and _strong_probable_prime(n, 2)
            and _strong_lucas_probable_prime(n))


def check_prime(p):
    """Raise DomainError("<p> is not prime") unless p is prime."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")


def _val(x, p):
    """p-adic valuation of a nonzero int or Fraction."""
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _integer_root(n, k):
    """The floor of the k-th root of n >= 1, by Newton's iteration from
    above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n):
    """(r, k) with n = r^k and k >= 2 least, or None; n has no prime factor
    up to _TRIAL_BOUND = 1000, so 1000^k < n."""
    k = 2
    while _TRIAL_BOUND ** k < n:
        r = _integer_root(n, k)
        if r ** k == n:
            return r, k
        k += 1
    return None


def _pollard_brent(n, meter):
    """A proper divisor of the odd composite n, by Brent's variant of
    Pollard's rho with x0 = 2 and c = 1, 2, 3, ..., charging its steps to
    the Budget meter."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            meter.charge(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - k)
                meter.charge(batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorize(n):
    """Sorted (prime, exponent) pairs of |n| for n != 0: the power of 2 by
    bit count, trial division by the odd primes up to _TRIAL_BOUND, then
    perfect-power roots and Pollard-Brent rho on what is left, each part
    tested with is_prime.

    Raises CapacityError when splitting the cofactor takes more than
    RHO_STEP_BUDGET rho steps."""
    n = abs(n)
    if n == 0:
        raise DomainError("0 has no prime factorization")
    twos = (n & -n).bit_length() - 1
    exps = {2: twos} if twos else {}
    n >>= twos
    for d in _TRIAL_DIVISORS:
        if d * d > n:
            break
        if n % d == 0:
            exps[d] = _val(n, d)
            n //= d ** exps[d]
    meter = Budget("RHO_STEP_BUDGET", RHO_STEP_BUDGET, "factorize needs",
                   f"Pollard-Brent steps on a {n.bit_length()}-bit cofactor")
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        if is_prime(m):
            exps[m] = exps.get(m, 0) + e
            continue
        power = _perfect_power(m)
        if power is not None:
            stack.append((power[0], e * power[1]))
            continue
        d = _pollard_brent(m, meter)
        stack += [(d, e), (m // d, e)]
    return sorted(exps.items())


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
    check_prime(p)
    return kronecker_symbol(field_discriminant(d), p) == -1


def is_ramified(p, d):
    """True iff p divides the discriminant of Q(sqrt(-d))."""
    check_prime(p)
    return kronecker_symbol(field_discriminant(d), p) == 0


def fermat_cubic_supersingular(p):
    """Supersingularity of the Fermat cubic fourfold in characteristic p:
    true iff p = 2 mod 3, equivalently iff p is inert in Q(sqrt(-3))."""
    check_prime(p)
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
        check_prime(q)
    r = len(primes)
    return Fraction(2 ** r - 1, 2 ** r)


def sieve_primes(bound):
    """All primes <= bound, by a basic Eratosthenes sieve; bound is at most
    SIEVE_LIMIT."""
    check_limit("SIEVE_LIMIT", SIEVE_LIMIT, "sieve bound", bound)
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


# the odd primes up to _TRIAL_BOUND, for factorize
_TRIAL_DIVISORS = sieve_primes(_TRIAL_BOUND)[1:]


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
