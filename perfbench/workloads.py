"""Request generators and response oracles for the k3lattice benchmark.

Every input is built here from the seed, with the benchmark's own lattice
constructions (U, E8, A_n, D_n, K3^[n], unimodular skews) and its own number
theory, never with k3lattice functions, so that a change to the library
cannot change what the library is asked.  Every request carries an oracle
that checks the response without the library.

Requests come in rounds.  A round has the same request classes and size
levels for every seed; the seed picks the values within each level.  A run
measures whole rounds, so runs with different seeds see the same mix.

Cost limits, checked as the worst request over several seeds:
  * `disc` goes up to rank 22 under skews of 6-16 (4-10 at ranks 20 and
    22), with determinants that are products of small block determinants.
    The SNF heavy tail stays: rank-18 and rank-22 documents reach 0.02-0.3 s
    against a median of 1-2 ms (0 of 1200 sampled took over 0.5 s).
    Excluded: rank-22 skews of 6-16, where 2 documents in 300 took over 2 s
    and one run met a request of about a minute; a random rank-23 Gram
    matrix with entries up to 50 (one `disc` took 97 s, 37 s of it in SNF
    with 1.4M-bit transforms); the 148-bit discriminant order that trial
    division cannot factor.
  * `pointed` uses points with entries in [-2, 2] whose complement
    determinant has two odd primes, so factoring is cheap; the paired ones
    compare 2-primary forms of order at most 2^6 (order 2^10 took 4 s in the
    brute-force comparison).  Excluded: the 53 s case whose complement
    determinant is (1e9+7)(1e9+9).
  * `enumerate` skews reach about 2e3 on rank 4 and 160 on E8 (up to 0.8 s);
    E8 at a skew of about 1.4e6 takes more than 600 s and is excluded.
  * `density` bounds stop at 1e6 (about 2 s) and trial division at 1e12.
These excluded inputs belong behind CapacityError budgets in the library;
adding them is a workload change of its own.
"""

import json
import random
from fractions import Fraction
from math import gcd, prod

WORKLOADS = ("gram", "search", "primes", "tiny")
DEFAULT_SEED = 1


class Mismatch(Exception):
    """A response that fails an oracle."""


def _require(cond, what):
    if not cond:
        raise Mismatch(what)


class Request:
    """One CLI call: argv, stdin text, expected exit code and an oracle that
    takes the parsed stdout (None for an expected error)."""

    __slots__ = ("kind", "argv", "stdin", "rc", "check")

    def __init__(self, kind, argv, payload=None, rc=0, check=None):
        self.kind = kind
        self.argv = tuple(argv)
        self.stdin = "" if payload is None else json.dumps(payload)
        self.rc = rc
        self.check = check


# ---------------------------------------------------------------- matrices

U = ((0, 1), (1, 0))


def _cartan_chain(n, edges):
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def cartan_a(n):
    return _cartan_chain(n, [(i, i + 1) for i in range(n - 1)])


def cartan_d(n):
    return _cartan_chain(n, [(i, i + 1) for i in range(n - 2)]
                         + [(n - 3, n - 1)])


def cartan_e8():
    # chain 0-...-6 with node 7 on node 4: arms of lengths 4, 2 and 1
    return _cartan_chain(8, [(i, i + 1) for i in range(6)] + [(4, 7)])


ROOTS = {"A": lambda n: n * (n + 1), "D": lambda n: 2 * n * (n - 1),
         "E": lambda n: 240}
CARTAN = {"A": cartan_a, "D": cartan_d, "E": lambda n: cartan_e8()}


def scaled(g, c):
    return [[c * x for x in row] for row in g]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    o = 0
    for b in blocks:
        for i, row in enumerate(b):
            g[o + i][o:o + len(b)] = list(row)
        o += len(b)
    return g


def skew(rng, g, target):
    """g conjugated by random transvections until an entry reaches
    ``target`` in absolute value (the determinant is unchanged)."""
    g = [list(row) for row in g]
    n = len(g)
    if n < 2:
        return g
    for _ in range(64 * n * n):
        if max(abs(x) for row in g for x in row) >= target:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in g:
            row[i] += c * row[j]
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    return g


def qform(g, x, y):
    return sum(xi * gij * yj for xi, row in zip(x, g) for gij, yj in
               zip(row, y))


def k3n_gram(n):
    """U^3 + E8(-1)^2 + <2 - 2n>, rank 23 (rank 22 for n = 1)."""
    blocks = [U] * 3 + [scaled(cartan_e8(), -1)] * 2
    if n > 1:
        blocks.append([[2 - 2 * n]])
    return block_diag(blocks)


def strings(g):
    return [[str(x) for x in row] for row in g]


# ----------------------------------------------------------- number theory

def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def prime_factors(n):
    """Distinct prime factors by trial division (inputs here have prime
    factors below about 1e6)."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def valuation(n, p):
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def legendre(a, p):
    return 1 if pow(a % p, (p - 1) // 2, p) == 1 else -1


_PRIME_COUNTS = {}


def prime_count(bound):
    if bound not in _PRIME_COUNTS:
        flags = bytearray([1]) * (bound + 1)
        flags[0] = flags[1] = 0
        for i in range(2, int(bound ** 0.5) + 1):
            if flags[i]:
                flags[i * i::i] = bytes(len(range(i * i, bound + 1, i)))
        _PRIME_COUNTS[bound] = flags.count(1)
    return _PRIME_COUNTS[bound]


def double_factorial_odd(n):
    """(2n - 1)!!, the number of perfect matchings of 2n objects."""
    return prod(range(1, 2 * n, 2))


def primitive_vector(rng, n, lo=-3, hi=3):
    while True:
        v = [rng.randint(lo, hi) for _ in range(n)]
        if gcd(*v) == 1:
            return v


# ----------------------------------------------------------------- oracles

def check_disc(det):
    order = abs(det)
    primes = prime_factors(order)

    def check(data):
        _require(data["order"] == str(order), "disc order != |det|")
        factors = [int(x) for x in data["invariant_factors"]]
        _require(all(f > 1 for f in factors), "trivial invariant factor")
        _require(all(b % a == 0 for a, b in zip(factors, factors[1:])),
                 "invariant factors do not divide")
        _require(prod(factors) == order, "invariant factors != order")
        _require(len(data["q_values"]) == len(factors), "q_values length")
        local = data["local_parts"]
        _require(sorted(int(p) for p in local) == primes,
                 "local parts != primes of the order")
        total = 1
        for p, part in local.items():
            for f in part["invariant_factors"]:
                f = int(f)
                _require(f == int(p) ** valuation(f, int(p)),
                         "local factor is not a prime power")
                total *= f
        _require(total == order, "local parts do not multiply to order")
    return check


def check_enumerate(gram, norm, count):
    def check(data):
        vs = [tuple(int(x) for x in v) for v in data["vectors"]]
        _require(data["count"] == str(count) and len(vs) == count,
                 f"expected {count} vectors of norm {norm}, got {len(vs)}")
        _require(all(a < b for a, b in zip(vs, vs[1:])),
                 "vectors not sorted and distinct")
        _require(all(qform(gram, v, v) == norm for v in vs),
                 "vector of the wrong norm")
    return check


def check_q(q):
    def check(data):
        got = [[Fraction(x) for x in row] for row in data["q"]]
        _require(got == q, "recovered q differs from the q given")
    return check


def check_degree(degree, n):
    c = double_factorial_odd(n)

    def check(data):
        lo, hi = (Fraction(x) for x in data["interval"])
        if data["root"] is not None:
            root = Fraction(data["root"])
            _require(c * root ** n == degree and lo == hi == root,
                     "degree root wrong")
            _require(data["is_integral"] == (root.denominator == 1),
                     "is_integral wrong")
        else:
            _require(c * lo ** n < degree < c * hi ** n,
                     "interval misses the root")
            _require(hi - lo <= Fraction(1, 10 ** 6), "interval too wide")
    return check


def check_density(bound):
    def check(data):
        total = prime_count(bound)
        _require(data["total_primes"] == str(total),
                 f"total_primes != {total}")
        _require(data["bound"] == str(bound), "bound echoed wrong")
        _require(0 <= int(data["hits"]) <= total, "hits out of range")
    return check


def check_newton(coeffs, p):
    degree = len(coeffs) - 1

    def check(data):
        slopes = [(Fraction(s), int(m)) for s, m in data["slopes"]]
        _require(sum(m for _, m in slopes) == degree, "slope lengths")
        _require(all(a[0] < b[0] for a, b in zip(slopes, slopes[1:])),
                 "slopes not ascending")
        _require(sum(s * m for s, m in slopes)
                 == valuation(coeffs[0], p) - valuation(coeffs[-1], p),
                 "sum of root valuations")
    return check


def check_jordan(p, a, sigma):
    want = [{"scale": "0", "rank": str(2 * a),
             "det_class": str(legendre((-1) ** a, p))}]
    if sigma:
        want.append({"scale": "1", "rank": str(2 * sigma),
                     "det_class": str(legendre((-1) ** sigma, p))})

    def check(data):
        _require(data["blocks"] == want, f"jordan blocks != {want}")
    return check


def check_artin(a, sigma):
    def check(data):
        _require(data["sigma"] == str(sigma), "artin sigma")
        _require(data["superspecial"] == (sigma == 1), "superspecial flag")
        _require(len(data["scaled_basis"]) == 2 * sigma, "scaled basis")
        _require(len(data["unscaled_basis"]) == 2 * a, "unscaled basis")
    return check


def check_mukai(ns, ns_det, v, w, p):
    def mpair(x, y):
        return qform(ns, x[1], y[1]) - x[0] * y[2] - y[0] * x[2]

    vsq = mpair(v, v)

    def check(data):
        _require(data["lattice_rank"] == str(len(ns) + 2), "mukai rank")
        _require(data["lattice_det"] == str(-ns_det), "mukai det")
        _require(data["v_square"] == str(vsq), "v^2")
        if w is not None:
            _require(data["pairing"] == str(mpair(v, w)), "pairing")
        rep = data["disc_check"]
        e = valuation(ns_det, p)
        _require(rep["perp_rank"] == str(len(ns) + 1), "perp rank")
        _require(rep["orders_match"] is True, "orders_match")
        _require(rep["perp_p_exponent"] == rep["ns_p_exponent"] == str(e),
                 "p-exponents")
    return check


def check_pointed(gram, det, signature, v, paired):
    n = len(gram)
    vsq = qform(gram, v, v)
    div = gcd(*[qform(gram, v, [int(i == j) for j in range(n)])
                for i in range(n)])
    comp_det = det * vsq // div ** 2

    def check(data):
        _require(data["signature"] == [str(x) for x in signature],
                 "signature")
        _require(data["point_norm"] == str(vsq), "point norm")
        _require(data["complement_det"] == str(comp_det),
                 f"complement det != {comp_det}")
        _require("warnings" not in data, "unexpected hypothesis warning")
        if paired:
            _require(data["equal_invariants"] is True, "equal_invariants")
            _require(data["equivalent_at_p"] is True, "equivalent_at_p")
    return check


# ---------------------------------------------------------------- requests

def even_blocks(rng, rank):
    """Random even nondegenerate blocks of total ``rank``, with the product
    of their determinants."""
    blocks, det = [], 1
    while rank:
        r = rng.random()
        if rank >= 8 and r < 0.15:
            b, d = scaled(cartan_e8(), rng.choice((1, -1))), 1
        elif rank >= 2 and r < 0.35:
            b, d = U, -1
        elif rank >= 2 and r < 0.75:
            while True:
                a, c = rng.randint(-4, 4), rng.randint(-4, 4)
                m = rng.randint(-4, 4)
                d = 4 * a * c - m * m
                if d:
                    break
            b = [[2 * a, m], [m, 2 * c]]
        elif rank >= 3 and r < 0.85:
            k = rng.randint(2, min(rank, 6))
            s = rng.choice((1, -1))
            b, d = scaled(cartan_a(k), s), s ** k * (k + 1)
        else:
            k = rng.choice([x for x in range(-6, 7) if x])
            b, d = [[2 * k]], 2 * k
        blocks.append(b)
        det *= d
        rank -= len(b)
    rng.shuffle(blocks)
    return blocks, det


def disc_request(kind, gram, det):
    return Request(kind, ["disc"], {"gram": strings(gram)}, 0,
                   check_disc(det))


def hyperbolic_tower(rng, a, sigma, p, target):
    """U^a + (pU)^sigma, skewed; its Jordan and Artin data are known."""
    g = block_diag([U] * a + [scaled(U, p)] * sigma)
    return skew(rng, g, target)


def jordan_request(kind, rng, p, a, sigma, target):
    g = hyperbolic_tower(rng, a, sigma, p, target)
    return Request(kind, ["jordan"], {"gram": strings(g), "p": str(p)}, 0,
                   check_jordan(p, a, sigma))


def artin_request(kind, rng, p, a, sigma, target):
    g = hyperbolic_tower(rng, a, sigma, p, target)
    return Request(kind, ["artin"], {"gram": strings(g), "p": str(p)}, 0,
                   check_artin(a, sigma))


def mukai_request(kind, rng, rank):
    while True:
        blocks, det = even_blocks(rng, rank)
        ns = block_diag(blocks)
        v = (rng.randint(-3, 3), [rng.randint(-3, 3) for _ in range(rank)],
             rng.randint(-3, 3))
        vsq = qform(ns, v[1], v[1]) - 2 * v[0] * v[2]
        if vsq:
            break
    p = next(q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
             if vsq % q)
    doc = {"ns": strings(ns), "p": str(p),
           "v": {"r": str(v[0]), "c1": [str(x) for x in v[1]],
                 "s": str(v[2])}}
    w = None
    if rng.random() < 0.5:
        w = (rng.randint(-3, 3), [rng.randint(-3, 3) for _ in range(rank)],
             rng.randint(-3, 3))
        doc["w"] = {"r": str(w[0]), "c1": [str(x) for x in w[1]],
                    "s": str(w[2])}
    return Request(kind, ["mukai"], doc, 0, check_mukai(ns, det, v, w, p))


def pointed_request(kind, rng, lattice, paired, two_adic, odd_primes):
    """Pointed invariants of a small primitive point.

    The complement has determinant det * v^2 / div(v)^2 with ``odd_primes``
    distinct odd prime factors if given (each costs one Jordan
    decomposition) and a 2-primary part of order 2^k, k in ``two_adic`` (it
    sets the cost of comparing the 2-primary forms).  ``lattice(rng)``
    gives (blocks, provenance, det, signature), two U blocks first.  With
    ``paired``, point2 is the point with those U blocks swapped, an
    isometry, so both comparisons must come out true."""
    lo, hi = two_adic
    while True:
        blocks, tags, det, signature = lattice(rng)
        gram = block_diag(blocks)
        n = len(gram)
        for _ in range(50):
            v = primitive_vector(rng, n, -2, 2)
            vsq = qform(gram, v, v)
            if not vsq:
                continue
            div = gcd(*[qform(gram, v, [int(i == j) for j in range(n)])
                        for i in range(n)])
            comp = det * vsq // div ** 2
            odd = len([p for p in prime_factors(comp) if p > 2])
            if lo <= valuation(comp, 2) <= hi \
                    and odd_primes in (None, odd):
                break
        else:
            continue
        break
    doc = {"gram": strings(gram), "provenance": tags,
           "point": [str(x) for x in v]}
    if paired:
        doc["point2"] = [str(x) for x in v[2:4] + v[0:2] + v[4:]]
        doc["p"] = str(rng.choice((2, 3, 5, 7)))
    return Request(kind, ["pointed"], doc, 0,
                   check_pointed(gram, det, signature, v, paired))


def k3n_lattice(rng):
    n = rng.randint(2, 50)
    e8 = scaled(cartan_e8(), -1)
    return ([U] * 3 + [e8] * 2 + [[[2 - 2 * n]]],
            ["U", "U", "U", "E8", "E8", f"<{2 - 2 * n}>"], 2 * n - 2,
            (3, 20))


def u2_lattice(rng, extra_rank=None):
    if extra_rank is None:
        extra_rank = rng.randint(6, 8)
    extra, det = even_blocks(rng, extra_rank)
    blocks = [U, U] + extra
    return (blocks, ["U", "U"] + ["?"] * len(extra), det,
            inertia(block_diag(blocks)))


def enumerate_request(kind, rng, parts, target):
    """Norm-2 vectors of a skewed sum of root lattices; their number is the
    sum of the root counts."""
    gram = skew(rng, block_diag([CARTAN[t](k) for t, k in parts]), target)
    count = sum(ROOTS[t](k) for t, k in parts)
    return Request(kind, ["enumerate"], {"gram": strings(gram), "norm": "2"},
                   0, check_enumerate(gram, 2, count))


def random_q(rng, r):
    while True:
        q = [[Fraction(0)] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                q[i][j] = q[j][i] = Fraction(rng.randint(-5, 5),
                                             rng.randint(1, 2))
        xi = [Fraction(rng.randint(-3, 3)) for _ in range(r)]
        if qform(q, xi, xi):
            return q, xi


def bb_q_request(kind, rng, n, r):
    q, xi = random_q(rng, r)
    doc = {"n": n, "xi": [str(x) for x in xi],
           "q": [[str(x) for x in row] for row in q]}
    return Request(kind, ["bb-recover"], doc, 0, check_q(q))


def _multisets(r, k, start=0):
    if k == 0:
        yield ()
        return
    for i in range(start, r):
        for rest in _multisets(r, k - 1, i):
            yield (i,) + rest


def _matching_sum(q, idx):
    if not idx:
        return Fraction(1)
    first, rest = idx[0], idx[1:]
    return sum(q[first][rest[i]] * _matching_sum(q, rest[:i] + rest[i + 1:])
               for i in range(len(rest)))


def bb_w_request(kind, rng, n, r):
    """Recovery from sampled values of the symmetrized power on every
    multiset of basis vectors, computed here by summing over matchings."""
    q, xi = random_q(rng, r)
    values = {",".join(map(str, m)): str(_matching_sum(q, m))
              for m in _multisets(r, 2 * n)}
    doc = {"n": n, "xi": [str(x) for x in xi],
           "xi_norm": str(qform(q, xi, xi)), "w_basis_values": values}
    return Request(kind, ["bb-recover"], doc, 0, check_q(q))


def degree_request(kind, rng, n):
    c = double_factorial_odd(n)
    if rng.random() < 0.5:
        degree = c * rng.randint(1, 60) ** n
    else:
        degree = c * rng.randint(2, 60) ** n + rng.randint(1, 9)
    return Request(kind, ["bb-recover"], {"degree": str(degree), "n": n}, 0,
                   check_degree(degree, n))


def density_request(kind, rng, mode, bound):
    if mode == "fermat":
        argv = ["density", "--fermat"]
    elif mode == "inert":
        ds = rng.sample(range(1, 60), 3)
        argv = ["density", "--inert", ",".join(map(str, ds))]
    else:
        ps = rng.sample((3, 5, 7, 11, 13, 17, 19, 23, 29, 31), 3)
        argv = ["density", "--union", ",".join(map(str, ps))]
    return Request(kind, argv + ["--bound", str(bound)], None, 0,
                   check_density(bound))


def newton_request(kind, rng, p):
    """A polynomial of degree 2-4 with coefficients of chosen p-adic
    valuation."""
    deg = rng.randint(2, 4)
    coeffs = []
    for i in range(deg + 1):
        unit = rng.choice([u for u in range(-9, 10) if u % p])
        coeffs.append(unit * p ** rng.randint(0, 2))
    doc = {"coeffs": [str(c) for c in coeffs], "p": str(p)}
    if rng.random() < 0.5:
        doc["weight"] = rng.randint(1, 4)
    return Request(kind, ["newton"], doc, 0, check_newton(coeffs, p))


# ---------------------------------------------------------------- workloads

def uniform_int(rng, lo, hi):
    return rng.randint(round(lo), round(hi))


def gram_round(rng):
    reqs = []
    # disc on random even Gram matrices of ranks 4..22 under moderate skew;
    # SNF transform growth gives the heavy tail
    for rank in range(4, 23, 2):
        blocks, det = even_blocks(rng, rank)
        lo, hi = (6, 16) if rank < 20 else (4, 10)
        g = skew(rng, block_diag(blocks), uniform_int(rng, lo, hi))
        reqs.append(disc_request(f"disc/rank{rank}", g, det))
    n = rng.randint(2, 500)
    reqs.append(disc_request("disc/k3n", skew(rng, k3n_gram(n), 4),
                             -(2 - 2 * n)))
    e8 = scaled(cartan_e8(), -1)
    cubic = block_diag([U, U, e8, e8, scaled(cartan_a(2), -1)])
    reqs.append(disc_request("disc/cubic", skew(rng, cubic, 8), 3))
    # pointed on K3^[n] and on U + U + even blocks.  The paired ones compare
    # 2-primary forms of order 2^2..2^4 (K3^[n]) and 2^6 (U + U); the two
    # paired U + U requests hold the round's 90th percentile.
    for kind, lattice, paired, two_adic in (
            ("pointed/k3n", k3n_lattice, False, (0, 99)),
            ("pointed/k3n", k3n_lattice, False, (0, 99)),
            ("pointed/k3n", k3n_lattice, True, (2, 4)),
            ("pointed/u2", u2_lattice, False, (0, 99)),
            ("pointed/u2", u2_lattice, True, (6, 6)),
            ("pointed/u2", u2_lattice, True, (6, 6))):
        reqs.append(pointed_request(kind, rng, lattice, paired, two_adic, 2))
    for _ in range(2):
        p = rng.choice((3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
        a, sigma = rng.randint(2, 4), rng.randint(2, 4)
        target = uniform_int(rng, 10, 40)
        reqs.append(jordan_request("jordan/tower", rng, p, a, sigma, target))
        reqs.append(artin_request("artin/tower", rng, p, a, sigma, target))
    for rank in (1, 2, 3):
        reqs.append(mukai_request(f"mukai/ns{rank}", rng, rank))
    return reqs


# (root system, skew range) per enumerate request of a search round
ENUMERATE_SHAPES = (
    ([("E", 8)], 10, 20), ([("E", 8)], 40, 80), ([("E", 8)], 80, 160),
    ([("A", 6)], 200, 400), ([("D", 6)], 100, 200), ([("A", 8)], 20, 50),
    ([("D", 8)], 20, 50), ([("D", 8)], 50, 100),
    ([("A", 3), ("D", 4)], 100, 200), ([("A", 2), ("A", 2), ("A", 3)], 300, 600),
    ([("A", 4)], 500, 1000), ([("A", 2), ("A", 2)], 1000, 2000),
)


def search_round(rng):
    reqs = []
    for parts, lo, hi in ENUMERATE_SHAPES:
        name = "+".join(f"{t}{k}" for t, k in parts)
        reqs.append(enumerate_request(f"enumerate/{name}", rng, parts,
                                      uniform_int(rng, lo, hi)))
    # (n, r) of the bb-recover requests; the median and the 90th percentile
    # of a round fall inside the runs of equal-cost (3, 3)/(2, 4) and
    # (3, 5)/(4, 4) requests, so the percentiles do not jump between classes
    for n, r in ((2, 2), (2, 3), (2, 5), (2, 6), (3, 2), (3, 4), (4, 2),
                 (4, 3)) + ((3, 3),) * 4 + ((2, 4),) * 2 + ((3, 5), (4, 4)) * 2:
        reqs.append(bb_q_request(f"bb-q/n{n}r{r}", rng, n, r))
    reqs.append(bb_w_request("bb-w/n2r3", rng, 2, 3))
    reqs.append(bb_w_request("bb-w/n3r2", rng, 3, 2))
    for n in (2, 3):
        reqs.append(degree_request(f"degree/n{n}", rng, n))
    return reqs


# (predicate, bound range) per density request of a primes round
DENSITY_LEVELS = (("fermat", 9e5, 1e6), ("union", 2.5e5, 3e5),
                  ("inert", 9e4, 1e5), ("fermat", 1e4, 1.1e4))


def primes_round(rng):
    reqs = []
    for mode, lo, hi in DENSITY_LEVELS:
        reqs.append(density_request(f"density/{mode}", rng, mode,
                                    uniform_int(rng, lo, hi)))
    # trial division at primes 1e6..1e12 on log-spaced levels; the cost
    # grows as sqrt(p), so each level only moves by a few percent.  The four
    # requests at 1e12 (with inert at 1e5) hold the 90th percentile.
    levels = [6, 6, 7.2, 7.2, 8.4, 9.6, 10.8] + [12] * 4
    for i, e in enumerate(levels):
        p = next_prime(uniform_int(rng, 0.95 * 10 ** e, 10 ** e))
        if i % 2 == 0:
            reqs.append(newton_request("newton/p", rng, p))
        a, sigma = rng.randint(1, 2), rng.randint(1, 2)
        if i % 4 == 1:
            reqs.append(jordan_request("jordan/p", rng, p, a, sigma, 10))
        elif i % 2:
            reqs.append(artin_request("artin/p", rng, p, a, sigma, 10))
    # rank 2-3 Gram matrices whose order has two primes of 1e5..2e6; the
    # smaller one sets the trial-division cost.  The eight at 2e5 hold the
    # median.
    for e in [5, 5.6, 5.8, 6] + [5.3] * 8:
        level = 10 ** e
        ps = [next_prime(uniform_int(rng, 0.95 * level, level)),
              next_prime(uniform_int(rng, 1.9 * level, 2 * level))]
        blocks = [[[2 * ps[0]]], [[2 * ps[1]]]] + [U] * rng.randint(0, 1)
        det = 4 * ps[0] * ps[1] * (-1) ** (len(blocks) - 2)
        reqs.append(disc_request("disc/bigprime",
                                 skew(rng, block_diag(blocks), 50), det))
    return reqs


def tiny_docs(rng):
    reqs = []
    for rank in (1, 2, 2, 3, 4, 4):
        blocks, det = even_blocks(rng, rank)
        reqs.append(disc_request("disc", skew(rng, block_diag(blocks), 6),
                                 det))
    for n, r in ((1, 2), (1, 3), (2, 2), (2, 3)):
        reqs.append(bb_q_request("bb-q", rng, n, r))
    for n, r in ((1, 2), (2, 2)):
        reqs.append(bb_w_request("bb-w", rng, n, r))
    for n in (1, 2, 3):
        reqs.append(degree_request("degree", rng, n))
    for p in rng.sample((3, 5, 7, 11, 13, 101, 997), 4):
        reqs.append(newton_request("newton", rng, p))
    for _ in range(3):
        p = rng.choice((3, 5, 7, 11))
        reqs.append(artin_request("artin", rng, p, 1, 1, 4))
    for _ in range(4):
        p = rng.choice((3, 5, 7, 11, 13))
        a, sigma = rng.choice(((1, 1), (2, 0), (1, 0)))
        reqs.append(jordan_request("jordan", rng, p, a, sigma, 4))
    for rank in (1, 2, 2):
        reqs.append(mukai_request("mukai", rng, rank))
    for parts in ([("A", 2)], [("A", 3)], [("D", 4)], [("A", 2), ("A", 2)]):
        reqs.append(enumerate_request("enumerate", rng, parts, 4))
    for paired in (False, True, True):
        reqs.append(pointed_request("pointed", rng,
                                    lambda rng: u2_lattice(rng, 0), paired,
                                    (0, 99), None))
    for mode, bound in (("fermat", 10 ** 4), ("inert", 5000),
                        ("union", 2000), ("fermat", 500)):
        reqs.append(density_request("density", rng, mode,
                                    uniform_int(rng, 0.95 * bound, bound)))
    # malformed and degenerate documents, about 5% of the set
    a = rng.randint(1, 9)
    reqs.append(Request("error/asymmetric", ["disc"],
                        {"gram": [["2", str(a)], [str(a + 1), "2"]]}, 2))
    reqs.append(Request("error/degenerate", ["jordan"],
                        {"gram": [[str(2 * a), str(2 * a)],
                                  [str(2 * a), str(2 * a)]], "p": "3"}, 3))
    rng.shuffle(reqs)
    return reqs


def inertia(g):
    """(positive, negative) inertia by exact symmetric elimination."""
    a = [[Fraction(x) for x in row] for row in g]
    n = len(a)
    pos = neg = 0
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is None:
            i, j = next((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if a[i][j])
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            piv = i
        a[k], a[piv] = a[piv], a[k]
        for row in a:
            row[k], row[piv] = row[piv], row[k]
        d = a[k][k]
        pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                for c in range(k, n):
                    a[i][c] -= f * a[k][c]
                for r in range(k, n):
                    a[r][i] -= f * a[r][k]
    return pos, neg


_ROUNDS = {"gram": gram_round, "search": search_round,
           "primes": primes_round}


def rounds(workload, seed):
    """The workload's rounds for a seed, endlessly.  ``tiny`` repeats one
    set of documents; the other workloads never repeat a document."""
    if workload == "tiny":
        docs = tiny_docs(random.Random(f"tiny/{seed}"))
        while True:
            yield docs
    build = _ROUNDS[workload]
    r = 0
    while True:
        yield build(random.Random(f"{workload}/{seed}/{r}"))
        r += 1
