"""Shared oracles and random generators for the test suite.

The oracles here are deliberately independent of the package internals:
the permutation-sum evaluator follows the defining normalized sum over all
orderings, ``projected_recover_form`` recovers q through xi-orthogonal
projections, the box enumerator scans a provably sufficient coordinate box,
the form-isomorphism search tries every image of the generators,
``fraction_block_split`` splits a lattice in exact rationals, and
``reference_s`` turns a CLI result into the strings json.dumps writes.
"""

import itertools
from fractions import Fraction
from functools import reduce
from math import factorial, gcd, isqrt
from operator import add, mul

import sympy
from hypothesis import strategies as st

import k3lattice._intlinalg as la
from k3lattice.bb_form import MAX_POWER_N, _check_n, perfect_matchings
from k3lattice.disc_form import FiniteQuadraticForm
from k3lattice.errors import InconsistencyError, check_limit
from k3lattice.prime_density import _val


def pair_value(gram, x, y):
    return sum(Fraction(xi) * sum(Fraction(g) * Fraction(yj)
                                  for g, yj in zip(row, y))
               for xi, row in zip(x, gram))


def perm_symmetrized_power(gram, n, args):
    """(1/(n! 2^n)) * sum over all (2n)! orderings of paired products."""
    k = 2 * n
    pair = [[pair_value(gram, args[i], args[j]) for j in range(k)]
            for i in range(k)]
    total = Fraction(0)
    for sigma in itertools.permutations(range(k)):
        term = Fraction(1)
        for i in range(n):
            term *= pair[sigma[2 * i]][sigma[2 * i + 1]]
        total += term
    return total / (factorial(n) * 2 ** n)


def projected_recover_form(w, n, xi, xi_norm):
    """Recover the unique symmetric form q with q(xi, xi) = xi_norm whose
    symmetrized 2n-fold product is ``w``.

    ``w`` is a callback taking a sequence of 2n rational vectors.  The
    returned Gram matrix is q on the standard basis e_0, ..., e_(r-1) of
    Q^r, r = len(xi).  InconsistencyError is raised unless
    w(e_i^{2n-1}, e_j) = c_n q_ii^{n-1} q_ji (at n = 1: unless w is
    symmetric), w(xi^{2n}) = c_n q(xi, xi)^n and q(xi, xi) = xi_norm.
    """
    _check_n(n)
    check_limit("MAX_POWER_N", MAX_POWER_N, "n =", n)
    xi_norm = Fraction(xi_norm)
    if xi_norm == 0:
        raise InconsistencyError("q(xi, xi) must be nonzero to recover q")
    xi = tuple(Fraction(x) for x in xi)
    r = len(xi)
    basis = [tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r)]
    c_n = perfect_matchings(n)
    c_prev = perfect_matchings(n - 1)

    if n == 1:
        q = [[w((basis[i], basis[j])) for j in range(r)] for i in range(r)]
    else:
        # cross terms q(xi, e_i) from the almost-pure-xi slice
        head = (xi,) * (2 * n - 1)
        cross = [w(head + (b,)) / (c_n * xi_norm ** (n - 1)) for b in basis]
        # xi-orthogonal projections e_i - (q(xi, e_i)/q(xi, xi)) xi
        proj = [tuple(x - (c / xi_norm) * y for x, y in zip(b, xi))
                for b, c in zip(basis, cross)]
        head2 = (xi,) * (2 * n - 2)
        q = [[None] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                val = w(head2 + (proj[i], proj[j]))
                qa = val / (c_prev * xi_norm ** (n - 1))
                q[i][j] = q[j][i] = qa + cross[i] * cross[j] / xi_norm
    q = [[Fraction(x) for x in row] for row in q]

    xi_q = la.vec_mat_vec(xi, q, xi)
    samples = [((xi,) * (2 * n), c_n * xi_q ** n)]
    # q_ji, not q_ij: at n = 1 this checks that w is symmetric
    for i in range(r):
        for j in range(i, r):
            samples.append(((basis[i],) * (2 * n - 1) + (basis[j],),
                            c_n * q[i][i] ** (n - 1) * q[j][i]))
    for ambient, value in samples:
        if w(ambient) != value:
            raise InconsistencyError(
                "samples are not generated by any symmetric form with "
                "the given q(xi, xi)")
    if xi_q != xi_norm:
        raise InconsistencyError("w(xi, xi) contradicts the claimed "
                                 "q(xi, xi)")
    return tuple(tuple(row) for row in q)


def count_eliminations(monkeypatch, build):
    """build() and the number of symmetric eliminations it ran."""
    calls = []
    eliminate = la.symmetric_elimination
    with monkeypatch.context() as m:
        m.setattr(la, "symmetric_elimination",
                  lambda g: calls.append(g) or eliminate(g))
        return build(), len(calls)


def sympy_det(a):
    """Exact determinant of a square integer or rational matrix, by sympy."""
    d = sympy.Matrix(len(a), len(a), [x for row in a for x in row]).det()
    return Fraction(int(d.p), int(d.q))


def sympy_inverse(a):
    """Exact inverse of a nonsingular square matrix, by sympy."""
    return sympy.Matrix(a).inv().tolist()


def sufficient_box(gram, m):
    """A coordinate bound B such that every x with x^T gram x = m has
    |x_i| <= B, for positive definite gram: |x_i| <= sqrt(m (gram^-1)_ii)."""
    ginv = sympy_inverse(gram)
    n = len(gram)
    return 1 + max(isqrt(int(abs(m) * ginv[i][i]) + 1) for i in range(n))


def box_vectors(gram, m, box):
    """All x in the given coordinate box with x^T gram x = m, sorted."""
    n = len(gram)
    out = []
    for x in itertools.product(range(-box, box + 1), repeat=n):
        v = sum(x[i] * gram[i][j] * x[j]
                for i in range(n) for j in range(n))
        if v == m:
            out.append(x)
    return sorted(out)


def random_unimodular(n, rng, steps=10, size=2):
    """Product of random elementary column operations; det is +-1."""
    m = la.identity(n)
    for _ in range(steps):
        if n == 1:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.choice([x for x in range(-size, size + 1) if x != 0])
        for r in range(n):
            m[r][j] += c * m[r][i]
    if rng.random() < 0.5 and n > 1:
        perm = list(range(n))
        rng.shuffle(perm)
        m = [[m[r][perm[c]] for c in range(n)] for r in range(n)]
    return m


def conjugate_gram(gram, g):
    """g^T gram g."""
    return la.mat_mul(la.transpose(g),
                      la.mat_mul([list(r) for r in gram], g))


def random_even_gram(rng, rank, with_hyperbolic=False, spread=3):
    """A random nondegenerate even Gram matrix of the given rank, built
    from even blocks and a random unimodular change of basis."""
    while True:
        blocks = []
        left = rank
        if with_hyperbolic:
            blocks.append([[0, 1], [1, 0]])
            left -= 2
        while left > 0:
            if left >= 2 and rng.random() < 0.4:
                a, b, c = (rng.randint(-spread, spread) for _ in range(3))
                blocks.append([[2 * a, b], [b, 2 * c]])
                left -= 2
            else:
                blocks.append([[2 * rng.randint(-spread, spread)]])
                left -= 1
        g = [[0] * rank for _ in range(rank)]
        ofs = 0
        for blk in blocks:
            r = len(blk)
            for i in range(r):
                for j in range(r):
                    g[ofs + i][ofs + j] = blk[i][j]
            ofs += r
        if la.det(g) == 0:
            continue
        u = random_unimodular(rank, rng, steps=6, size=1)
        return conjugate_gram(g, u)


def transvection_matrix(gram, e, a):
    """Matrix of x -> x + <x,e> a - <x,a> e - (a^2/2) <x,e> e for an
    isotropic e and a with <a, e> = 0, on an even lattice."""
    n = len(gram)
    ge = la.mat_vec([list(r) for r in gram], list(e))
    ga = la.mat_vec([list(r) for r in gram], list(a))
    asq = sum(a[i] * gram[i][j] * a[j] for i in range(n) for j in range(n))
    esq = sum(e[i] * gram[i][j] * e[j] for i in range(n) for j in range(n))
    assert asq % 2 == 0 and esq == 0
    assert sum(x * y for x, y in zip(ge, a)) == 0, "a must be orthogonal to e"
    q = asq // 2
    t = la.identity(n)
    for r in range(n):
        for c in range(n):
            t[r][c] += a[r] * ge[c] - e[r] * ga[c] - q * e[r] * ge[c]
    return t


def congruence_isometry_instance(rng, extra_rank=2):
    """A random even lattice with a hyperbolic block, a modulus m killing
    its discriminant, and a random isometry congruent to 1 mod m.

    Built from scaled transvections along the hyperbolic block, then
    conjugated by a random unimodular matrix; returns (gram, g, m).
    """
    from k3lattice.disc_form import discriminant_group
    from k3lattice.lattice_core import QuadLattice

    rank = 2 + extra_rank
    while True:
        g0 = [[0] * rank for _ in range(rank)]
        g0[0][1] = g0[1][0] = 1
        for i in range(extra_rank):
            g0[2 + i][2 + i] = 2 * rng.choice([x for x in range(-3, 4)
                                               if x != 0])
        if la.det(g0) == 0:
            continue
        form = discriminant_group(QuadLattice(g0))
        m = 1
        for d in form.invariant_factors:
            m = m * d // gcd(m, d)
        iso = la.identity(rank)
        for _ in range(rng.randint(1, 3)):
            e = [0] * rank
            e[rng.choice([0, 1])] = 1
            a = [0] * rank
            a[rng.randrange(2, rank)] = m * rng.choice([-1, 1])
            if rng.random() < 0.5:
                a[rng.choice([0, 1])] = m * rng.randint(-1, 1)
            # keep <a, e> = 0: a may use e's own index but not its partner
            partner = 1 - e.index(1)
            a[partner] = 0
            iso = la.mat_mul(iso, transvection_matrix(g0, e, a))
        u = random_unimodular(rank, rng, steps=5, size=1)
        uinv = [[int(x) for x in row] for row in sympy_inverse(u)]
        gram = conjugate_gram(g0, u)
        gmat = la.mat_mul(uinv, la.mat_mul(iso, u))
        return gram, gmat, m


def pointed_isometry_search(gram, v, w, bound=2):
    """Exhaustive search for an isometry of the lattice sending v to w,
    with all image coordinates bounded.  Small ranks only."""
    n = len(gram)
    cols = []
    candidates = [x for x in itertools.product(range(-bound, bound + 1),
                                               repeat=n)]

    def pairing(x, y):
        return sum(x[i] * gram[i][j] * y[j]
                   for i in range(n) for j in range(n))

    def place(i):
        if i == n:
            img = [sum(v[j] * cols[j][t] for j in range(n)) for t in range(n)]
            return img == list(w)
        for cand in candidates:
            if pairing(cand, cand) != gram[i][i]:
                continue
            if any(pairing(cand, cols[j]) != gram[i][j] for j in range(i)):
                continue
            cols.append(cand)
            if place(i + 1):
                return True
            cols.pop()
        return False

    if place(0):
        return [[cols[j][i] for j in range(n)] for i in range(n)]
    return None


def isometry_with_gram_instance(rng, rank=5):
    """A random symmetric nondegenerate gram with a known nontrivial
    isometry, via conjugation of block swaps and transvections."""
    # two copies of one even block admit the swap isometry
    while True:
        half = rank // 2
        blk = random_even_gram(rng, half)
        g0 = [[0] * (2 * half) for _ in range(2 * half)]
        for i in range(half):
            for j in range(half):
                g0[i][j] = blk[i][j]
                g0[half + i][half + j] = blk[i][j]
        if la.det(g0) == 0:
            continue
        swap = [[0] * (2 * half) for _ in range(2 * half)]
        for i in range(half):
            swap[i][half + i] = 1
            swap[half + i][i] = 1
        u = random_unimodular(2 * half, rng, steps=5, size=1)
        uinv = [[int(x) for x in row] for row in sympy_inverse(u)]
        gram = conjugate_gram(g0, u)
        iso = la.mat_mul(uinv, la.mat_mul(swap, u))
        return gram, iso



def brute_isotropic_subgroups(form):
    """Sorted element tuples of every subgroup on which q vanishes, ordered
    by (order, elements).

    A group with k invariant factors has every subgroup generated by at most
    k elements, and an isotropic subgroup by isotropic ones.  So this takes
    the spans of 0, 1, ..., k isotropic elements, a new generator x adding
    the multiples a*x to every element, and keeps the spans where q is zero
    (a span where it is not is dropped at once: so is every larger one).
    """
    factors = form.invariant_factors
    isotropic = [x for x in form.elements() if form.q(x) == 0]
    frontier = {frozenset([(0,) * len(factors)])}
    seen = set(frontier)
    spans = set(frontier)
    for _ in range(len(factors)):
        nxt = set()
        for h in frontier:
            for x in isotropic:
                span = frozenset(
                    tuple((yi + a * xi) % d for yi, xi, d in zip(y, x, factors))
                    for y in h for a in range(max(factors)))
                if span in seen:
                    continue
                seen.add(span)
                if all(form.q(y) == 0 for y in span):
                    nxt.add(span)
        spans |= nxt
        frontier = nxt
    return sorted((tuple(sorted(h)) for h in spans),
                  key=lambda els: (len(els), els))


def finite_forms(factors, modulus):
    """Every well-defined nondegenerate finite quadratic form on the group
    with the given invariant factors, as tables over the exponent e and with
    no ambient lattice (each generator is the empty vector).

    The generator g_i of Z/d_i gets q(g_i) = a_i / d_i with a_i taken mod
    modulus * d_i, where d_i * a_i must be even for modulus 2 (so that
    q(d_i g_i) = 0); two generators pair to c_ij / min(d_i, d_j) with c_ij
    taken mod min(d_i, d_j).  A table is kept when no nonzero element of
    prime order pairs integrally with every generator.
    """
    k = len(factors)
    e = factors[-1] if factors else 1
    diagonal = [[e * e * a // d for a in range(modulus * d)
                 if modulus == 1 or d * a % 2 == 0] for d in factors]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    off = [[e * e * c // min(factors[i], factors[j])
            for c in range(min(factors[i], factors[j]))] for i, j in pairs]
    primes = {p for d in factors for p in sympy.primefactors(d)}
    # the elements of prime order p, as coefficient vectors
    torsion = [x for p in primes for x in itertools.product(
        *([a * d // p for a in range(p)] if d % p == 0 else [0]
          for d in factors)) if any(x)]
    for diag in itertools.product(*diagonal):
        for values in itertools.product(*off):
            table = [[0] * k for _ in range(k)]
            for i in range(k):
                table[i][i] = diag[i]
            for (i, j), t in zip(pairs, values):
                table[i][j] = table[j][i] = t
            if any(all(sum(a * row[j] for a, row in zip(x, table)) % (e * e)
                       == 0 for j in range(k)) for x in torsion):
                continue
            yield FiniteQuadraticForm(
                invariant_factors=tuple(factors), generators=((),) * k,
                table=tuple(map(tuple, table)), modulus=modulus)


def brute_forms_isomorphic(f1, f2):
    """True iff some group isomorphism carries q of f1 to q of f2.

    q(x) is read as the integer x^T T x mod modulus * e^2.  The images of
    f1's invariant-factor generators are chosen one at a time among f2's
    elements that the generator's invariant factor kills, with the
    generator's q and its pairings q(y + z) - q(y) - q(z) with the images
    chosen before; each image must enlarge their span by its full invariant
    factor, so a complete choice is an isomorphism.  It is then checked on
    q of every element.
    """
    if (f1.invariant_factors != f2.invariant_factors
            or f1.modulus != f2.modulus):
        return False
    factors = f1.invariant_factors
    k = len(factors)
    m = f1.modulus * (factors[-1] if factors else 1) ** 2

    def values(f):
        return {x: sum(a * t * b for a, row in zip(x, f.table)
                       for t, b in zip(row, x)) % m for x in f.elements()}

    def pair(q, f, y, z):
        return (q[f.add(y, z)] - q[y] - q[z]) % m

    q1, q2 = values(f1), values(f2)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    candidates = [[y for y in q2 if q2[y] == q1[u]
                   and all(d * t % f == 0 for t, f in zip(y, factors))]
                  for d, u in zip(factors, units)]

    def combine(x, images):
        return tuple(sum(a * img[j] for a, img in zip(x, images)) % d
                     for j, d in enumerate(factors))

    def extend(images, span):
        # span is the subgroup of f2 generated by images
        i = len(images)
        if i == k:
            return all(q2[combine(x, images)] == q1[x] for x in q1)
        for y in candidates[i]:
            if any(pair(q2, f2, images[j], y) != pair(q1, f1, units[j],
                                                      units[i])
                   for j in range(i)):
                continue
            multiples = [tuple(a * t % d for t, d in zip(y, factors))
                         for a in range(factors[i])]
            joined = {f2.add(s, c) for s in span for c in multiples}
            if (len(joined) == len(span) * factors[i]
                    and extend(images + [y], joined)):
                return True
        return False

    return extend([], {(0,) * k})


def bisection_interval(target, n, width):
    """The interval around the positive root of x^n = target that bisection
    of [0, h] returns once it is at most ``width`` wide, where h is
    isqrt(floor(target)) + 1 (at least 1), doubled until h^n >= target."""
    lo = Fraction(0)
    hi = Fraction(max(1, isqrt(target.numerator // target.denominator) + 1))
    while hi ** n < target:
        hi *= 2
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid ** n < target:
            lo = mid
        else:
            hi = mid
    return lo, hi


def brute_newton_slopes(coeffs, p):
    """Root valuations of sum(coeffs[i] x^i) over Q_p with multiplicities,
    ascending, read off the lower convex envelope f of the points
    (i, v_p(coeffs[i])): f at each integer x is the least value at x of a
    chord between two points on either side, and the roots have valuation
    f(x) - f(x + 1) once for each x in 0..deg-1."""
    pts = []
    for i, c in enumerate(coeffs):
        if c:
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            pts.append((i, v))
    deg = len(coeffs) - 1
    f = [min(Fraction(yi * (xj - x) + yj * (x - xi), xj - xi) if xj > xi
             else Fraction(yi)
             for xi, yi in pts for xj, yj in pts if xi <= x <= xj)
         for x in range(deg + 1)]
    counts = {}
    for x in range(deg):
        val = f[x] - f[x + 1]
        counts[val] = counts.get(val, 0) + 1
    return tuple(sorted(counts.items()))


def transvected(g, steps):
    """g in the basis changed by each (i, j, c) of steps in turn: basis
    vector i gains c times basis vector j, so column and row i of g gain c
    times column and row j (i = j is skipped)."""
    g = [list(row) for row in g]
    for i, j, c in steps:
        if i != j:
            for row in g:
                row[i] += c * row[j]
            g[i] = [x + c * y for x, y in zip(g[i], g[j])]
    return g


# the rational elimination that local_arith._block_split makes in integers,
# kept verbatim as its oracle
def fraction_block_split(gram, p):
    """Split a lattice over the p-adic integers into p^k-scaled unimodular
    blocks, exactly; it serves only artin_invariant's witness bases.

    Returns a list of (scale, block, basis) where block is a 1x1 or 2x2
    Fraction matrix equal to p^scale times a p-unimodular matrix and basis
    holds the corresponding p-integral basis vectors (ambient coordinates).
    2x2 blocks occur only for p = 2.

    One step serves both pivot shapes: the pivot block b moves to k.., and
    each later row t gains -(a_tk, ...) b^-1 times its rows.  Rows and
    columns before k are never read again, so Gram updates skip them.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a[k:]:
            row[i], row[j] = row[j], row[i]
        basis[i], basis[j] = basis[j], basis[i]

    def add_to(i, j, f):
        # basis vector b_i += f * b_j, with the symmetric Gram update
        a[i][k:] = [x + f * y for x, y in zip(a[i][k:], a[j][k:])]
        for row in a[k:]:
            row[i] += f * row[j]
        basis[i] = [x + f * y for x, y in zip(basis[i], basis[j])]

    blocks = []
    k = 0
    while k < n:
        best = None
        for i in range(k, n):
            for j in range(i, n):
                if a[i][j] != 0:
                    v = _val(a[i][j], p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
        assert best is not None, "nondegenerate lattice ran out of pivots"
        v, i, j = best
        diag = next((t for t in range(k, n)
                     if a[t][t] != 0 and _val(a[t][t], p) == v), None)
        if diag is None and p != 2:
            # a[i][i] + 2 a[i][j] + a[j][j] has valuation exactly v
            add_to(i, j, Fraction(1))
            diag = i
        # a diagonal pivot, or the 2x2 block on i < j when p = 2 has its
        # minimal valuation only off the diagonal; ascending swaps leave the
        # later targets in place
        piv = (i, j) if diag is None else (diag,)
        s = len(piv)
        for r, t in enumerate(piv):
            swap(k + r, t)
        b = [row[k:k + s] for row in a[k:k + s]]
        # -b^-1 = m / d in closed form; b is symmetric, so m is
        if s == 1:
            d, m = b[0][0], [[-1]]
        else:
            d = b[0][0] * b[1][1] - b[0][1] * b[1][0]
            m = [[-b[1][1], b[0][1]], [b[1][0], -b[0][0]]]
        for t in range(k + s, n):
            fs = [reduce(add, map(mul, a[t][k:k + s], x)) / d for x in m]
            for r, f in enumerate(fs):
                if f != 0:
                    add_to(t, k + r, f)
        blocks.append((v, b, [tuple(x) for x in basis[k:k + s]]))
        k += s
    return blocks


@st.composite
def definite_grams(draw, max_rank=6):
    """(g, sign): sign (A^T A + E), E a positive diagonal, skewed by up to
    12 transvections, so g is definite of that sign."""
    n = draw(st.integers(1, max_rank))
    sign = draw(st.sampled_from([1, -1]))
    ints = st.integers(-4, 4)
    a = draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    e = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    g = la.congruence(a, la.identity(n))
    g = [[sign * (x + e[i] * (i == j)) for j, x in enumerate(row)]
         for i, row in enumerate(g)]
    index = st.integers(0, n - 1)
    steps = draw(st.lists(st.tuples(index, index, st.integers(-3, 3)),
                          max_size=12))
    return transvected(g, steps), sign


def reference_s(x):
    """x with each int and Fraction as its decimal string, tuples as lists,
    and everything else as it is; the CLI writes a result x as
    json.dumps(reference_s(x), indent=2, sort_keys=True) gives it."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x) if x.denominator > 1 else str(x.numerator)
    if isinstance(x, (list, tuple)):
        return [reference_s(v) for v in x]
    if isinstance(x, dict):
        return {k: reference_s(v) for k, v in x.items()}
    return x


# strings that need escaping: quotes, backslashes, control characters and
# text past ASCII
_ESCAPED = st.text(st.sampled_from(
    '"\\/\n\t\x00\x1f\x7f a\xe9\u20ac\U0001f600'))

# what a CLI command may return: nested dicts, lists and tuples of ints (past
# 2^64 too), Fractions, bools, None and strings, empty containers included
cli_results = st.recursive(
    st.one_of(st.integers(), st.integers(-(1 << 200), 1 << 200),
              st.fractions(), st.booleans(), st.none(), st.text(),
              _ESCAPED),
    lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple),
        st.dictionaries(st.one_of(st.text(), _ESCAPED), inner)),
    max_leaves=20)
