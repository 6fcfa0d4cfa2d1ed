"""Exact integer matrix routines.

The products below take lists/tuples of python ints or Fractions and skip
zero entries; every matrix product is ``mat_mul``, and ``congruence`` is two
of them.  The eliminations work on ints only.  No floating point is used
anywhere.

Every determinant and signature in the library comes from one
fraction-free symmetric elimination (Bareiss, Math. Comp. 22, 1968),
``symmetric_elimination``, whose minors a QuadLattice keeps.  Every
square-and-symmetric check is ``check_symmetric``.  A QuadLattice also
keeps, each made on first use, the ``smith_normal_form`` of its Gram matrix
and, when definite, the ``lll_reduction`` of its Gram matrix made positive,
from which the Fincke-Pohst factors of the enumeration are read.  That
reduction starts from the kept elimination, whose minors and stage rows are
the integral Gram-Schmidt of the basis, so it computes no pairing itself.
"""


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    """a b, skipping zero entries: for each nonzero b[k][j], column j of the
    product gains b[k][j] times the nonzero entries of column k of a.  A
    product entry with no nonzero term is the int 0."""
    acols = [[(i, y) for i, y in enumerate(col) if y] for col in zip(*a)]
    cols = []
    for bcol in zip(*b):
        col = [0] * len(a)
        for acol, x in zip(acols, bcol):
            if x:
                for i, y in acol:
                    col[i] += x * y
        cols.append(col)
    return [list(row) for row in zip(*cols)] if cols else [[] for _ in a]


def mat_vec(a, v):
    """a v for a vector v (zero entries are skipped)."""
    return [sum(x * y for x, y in zip(row, v) if y) for row in a]


def vec_mat_vec(x, a, y):
    """x^T a y for vectors x, y (zero entries are skipped)."""
    total = 0
    for xi, row in zip(x, a):
        if xi:
            total += xi * sum(aij * yj for aij, yj in zip(row, y) if yj)
    return total


def congruence(g, a):
    """g^T a g."""
    return mat_mul(transpose(g), mat_mul(a, g))


def check_symmetric(m, error, what):
    """Raise ``error("<what> must be square")`` unless every row of m has
    len(m) entries, and ``error("<what> must be symmetric")`` unless m equals
    its transpose."""
    if any(len(row) != len(m) for row in m):
        raise error(f"{what} must be square")
    if list(zip(*m)) != list(map(tuple, m)):
        raise error(f"{what} must be symmetric")


def symmetric_elimination(g):
    """Fraction-free symmetric elimination of a symmetric integer matrix.

    Returns (minors, rows): minors = [D_1, ..., D_r] are the nonzero leading
    principal minors and rows[k] is the (k+1)-th stage row M, with zeros
    before its diagonal entry D_(k+1).  With D_0 = 1, the k-th pivot is
    D_k / D_(k-1), so r is the rank and the signs of D_(k-1) D_k give the
    inertia.  If no pivot moved, x^T g x = sum_k (M_k x)^2 / (D_(k-1) D_k).

    A pivot is moved or made only where a zero diagonal forces it, which
    never happens on a definite matrix: a nonzero diagonal entry is swapped
    in, or else row and column j are added to row and column i.  Both keep
    the determinant.  Raises ValueError on a non-square or non-symmetric g.
    """
    check_symmetric(g, ValueError, "matrix")
    n = len(g)
    m = [list(row) for row in g]
    minors = []
    rows = []
    prev = 1
    for k in range(n):
        top = m[k]
        if top[k] == 0:
            # the steps below keep only the upper triangle: restore the
            # trailing block's lower one before rows and columns move
            for i in range(k + 1, n):
                m[i][k:i] = [row[i] for row in m[k:i]]
            piv = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if piv is None:
                # all trailing diagonal zero: find an off-diagonal entry
                pair = next(((i, j) for i in range(k, n)
                             for j in range(i + 1, n) if m[i][j] != 0), None)
                if pair is None:
                    break
                i, j = pair
                for t in range(k, n):
                    m[i][t] += m[j][t]
                for t in range(k, n):
                    m[t][i] += m[t][j]
                piv = i
            m[k], m[piv] = m[piv], m[k]
            for row in m[k:]:
                row[k], row[piv] = row[piv], row[k]
            top = m[k]
        dk = top[k]
        # Bareiss step on the upper triangle: each entry becomes a bordered
        # minor, an exact multiple of the previous pivot minor
        for i in range(k + 1, n):
            f = top[i]
            row = m[i]
            if f:
                row[i:] = [(x * dk - f * y) // prev
                           for x, y in zip(row[i:], top[i:])]
            elif dk != prev:
                row[i:] = [x * dk // prev for x in row[i:]]
        minors.append(dk)
        rows.append([0] * k + top[k:])
        prev = dk
    return minors, rows


def lll_reduction(rows):
    """Integral LLL reduction (Cohen, Alg. 2.6.7, delta = 3/4) of a positive
    definite n x n integer Gram matrix g, in integers only (de Weger 1987),
    started from the stage rows of its elimination,
    rows = symmetric_elimination(g)[1].

    Those rows are the integral Gram-Schmidt of the standard basis:
    d_(k+1) = rows[k][k], and lambda_kj = d_(j+1) mu_kj is rows[j][k], k > j.
    Each swap updates every later row.  Returns (h, minors, rows): h is
    unimodular, and its rows, the reduced basis in the coordinates of g, have
    the Gram matrix r = h g h^T, whose elimination is (minors, rows).  Raises
    ValueError unless there are n >= 1 rows of n entries with positive
    diagonal, that is, unless g is positive definite.
    """
    n = len(rows)
    if not rows or any(len(row) != n or row[k] <= 0
                       for k, row in enumerate(rows)):
        raise ValueError("matrix is not positive definite")
    h = identity(n)
    lam = [list(row) for row in rows]  # lam[j][k] = lambda_kj, j < k
    d = [1] + [row[k] for k, row in enumerate(lam)]  # d[k] = d_k, d_0 = 1

    def red(k, l):
        # size-reduce row k against row l: 2 |lambda_kl| <= d_(l+1), and
        # lambda_ki -= q lambda_li for i <= l, where lambda_ll = d_(l+1)
        if 2 * abs(lam[l][k]) > d[l + 1]:
            q = (2 * lam[l][k] + d[l + 1]) // (2 * d[l + 1])
            h[k] = [x - q * y for x, y in zip(h[k], h[l])]
            for row in lam[:l + 1]:
                row[k] -= q * row[l]

    def swap(k):
        h[k], h[k - 1] = h[k - 1], h[k]
        for row in lam[:k - 1]:
            row[k], row[k - 1] = row[k - 1], row[k]
        lk = lam[k - 1][k]
        b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        above, below = lam[k - 1], lam[k]
        for i in range(k + 1, n):
            t = below[i]
            below[i] = (d[k + 1] * above[i] - lk * t) // d[k]
            above[i] = (b * t + lk * below[i]) // d[k + 1]
        d[k] = above[k - 1] = b

    k = 1
    while k < n:
        red(k, k - 1)
        # Lovasz condition for delta = 3/4
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k - 1][k] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return h, d[1:], lam


def det(a):
    """Determinant of a symmetric integer matrix: the last leading minor of
    its elimination, 0 below full rank and 1 for the empty matrix."""
    minors, _ = symmetric_elimination(a)
    return (minors or [1])[-1] if len(minors) == len(a) else 0


def smith_normal_form(a):
    """Smith normal form with its column transform.

    Returns (d, t) where s*a*t = d for some unimodular s (not built), t is
    unimodular and d is diagonal with d[0][0] | d[1][1] | ... >= 0.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    t = identity(n)

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in t:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]

    def add_col(i, j, c):
        for row in d:
            row[i] += c * row[j]
        for row in t:
            row[i] += c * row[j]

    def clear_pivot(k):
        # Euclidean sweeps until row k and column k vanish off the pivot.
        while True:
            for i in range(k + 1, m):
                if d[i][k] != 0:
                    q = d[i][k] // d[k][k]
                    add_row(i, k, -q)
                    if d[i][k] != 0:
                        d[i], d[k] = d[k], d[i]
                        break
            else:
                for j in range(k + 1, n):
                    if d[k][j] != 0:
                        q = d[k][j] // d[k][k]
                        add_col(j, k, -q)
                        if d[k][j] != 0:
                            swap_cols(j, k)
                            break
                else:
                    return

    k = 0
    while k < min(m, n):
        piv = None
        best = None
        for i in range(k, m):
            for j in range(k, n):
                v = abs(d[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        d[k], d[piv[0]] = d[piv[0]], d[k]
        swap_cols(k, piv[1])
        while True:
            clear_pivot(k)
            bad = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if d[i][j] % d[k][k] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(k, bad, 1)
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
        k += 1
    return d, t


def hermite_normal_form(rows):
    """Canonical row Hermite normal form of the lattice spanned by the
    given integer rows: staircase shape, positive pivots, entries above a
    pivot reduced into [0, pivot).  Zero rows are dropped."""
    m = [list(r) for r in rows]
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            nz = [i for i in range(r, nrows) if m[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(m[i][c]))
            if i0 != r:
                m[r], m[i0] = m[i0], m[r]
            clean = True
            for i in range(r + 1, nrows):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        clean = False
            if clean:
                break
        if m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-a for a in m[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
            r += 1
    return m[:r]
