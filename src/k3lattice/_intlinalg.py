"""Exact integer and rational matrix routines.

Everything here works on plain lists/tuples of python ints or Fractions;
no floating point is used anywhere.
"""

from fractions import Fraction
from math import lcm


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


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


def det(a):
    """Determinant of a square integer or rational matrix: one common
    denominator is cleared, then fraction-free Bareiss elimination.  Integer
    input gives an int."""
    n = len(a)
    if n == 0:
        return 1
    den = lcm(*(x.denominator for row in a for x in row))
    m = [[int(x * den) for x in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    out = sign * m[n - 1][n - 1]
    return out if den == 1 else Fraction(out, den ** n)


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


def integer_kernel(a):
    """Basis of the saturated lattice {x in Z^n : a x = 0}.

    Returns a list of integer vectors; any integer solution of a x = 0 is a
    Z-combination of them.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d, t = smith_normal_form(a)
    rank = sum(1 for i in range(min(m, n)) if d[i][i] != 0)
    return [[t[i][j] for i in range(n)] for j in range(rank, n)]


def rational_inverse(a):
    """Exact inverse of a square matrix over the rationals."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


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


def ldl(g):
    """Exact symmetric elimination g = U^T D U of a symmetric rational
    matrix: returns the pivots d and the rows c of the unit upper triangular
    U, so that x^T g x = sum_i d_i (x_i + sum_{j>i} c_ij x_j)^2.

    A pivot is moved or made only where a zero diagonal forces it, which
    never happens on a definite matrix.  Where it happens, c no longer
    factors g, but d still gives the inertia: len(d) is the rank, and the
    signs of d count the positive and negative directions.
    """
    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]
    d = []
    c = []
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            # all trailing diagonal zero: find an off-diagonal entry
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                         if a[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            for t in range(k, n):
                a[i][t] += a[j][t]
            for t in range(k, n):
                a[t][i] += a[t][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
        dk = a[k][k]
        ck = [0] * n
        ck[k] = 1
        # Schur complement a[i][j] -= a[i][k] a[k][j] / d_k, which touches
        # only the rows and columns where row k is nonzero
        nz = [j for j in range(k + 1, n) if a[k][j] != 0]
        for j in nz:
            ck[j] = a[k][j] / dk
        for i in nz:
            f = a[k][i]
            row = a[i]
            for j in nz:
                row[j] -= f * ck[j]
        d.append(dk)
        c.append(ck)
    return d, c
