"""The quadratic form behind a fully symmetrized 2n-fold product.

For a symmetric bilinear form q on a free module, the associated 2n-linear
symmetric map is

    w(a_1, ..., a_2n) = sum over perfect matchings of {1..2n} of the
                        product of q over the matched pairs,

which equals the (1/(n! 2^n))-normalized sum over all permutations.  On the
diagonal, w(a, ..., a) = c_n q(a, a)^n where c_n = (2n)!/(2^n n!) counts the
matchings.  Conversely q can be recovered from w and one nonzero value
N = q(xi, xi).  Counting the matchings that pair a with xi or with b gives

    w(xi^{2n-1}, a)    = c_n N^{n-1} q(xi, a),
    w(xi^{2n-2}, a, b) = c_{n-1} N^{n-2} (N q(a, b)
                                          + (2n-2) q(xi, a) q(xi, b)),

and c_n = (2n-1) c_{n-1}, so q(a, b) is read off w(xi^{2n-1}, a),
w(xi^{2n-1}, b) and w(xi^{2n-2}, a, b).
"""

from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from math import factorial, isqrt, lcm

from . import _intlinalg as la
from .errors import DomainError, InconsistencyError, check_limit
from .prime_density import _integer_root

# degree_to_bb isolates an irrational root in an interval this wide.
INTERVAL_WIDTH = Fraction(1, 10 ** 6)

# SymmetrizedPowerForm sums over up to (2n)!/(2^n n!) matchings a call, and
# recover_form makes O(r^2) calls of its w; both raise CapacityError above
# this n.
MAX_POWER_N = 5

# degree_to_bb computes (2n)! and n-th powers; it raises CapacityError
# above this n.
MAX_DEGREE_N = 1000


def _check_n(n):
    if n < 1:
        raise DomainError("n must be >= 1")


def perfect_matchings(n):
    """(2n)!/(2^n n!), the number of perfect matchings of 2n objects."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return factorial(2 * n) // (2 ** n * factorial(n))


def symmetrized_power(gram, n, args):
    """Evaluate the symmetrized 2n-fold product of the symmetric form
    ``gram`` on exactly 2n rational vectors: SymmetrizedPowerForm(gram,
    n)(args)."""
    return SymmetrizedPowerForm(gram, n)(args)


@dataclass(frozen=True)
class SymmetrizedPowerForm:
    """The symmetrized 2n-fold product w of a symmetric rational form
    ``base_form`` with n = ``degree``, evaluated in integers.

    Construction clears one common denominator D of the Gram matrix G.  Each
    distinct argument v is scaled once by the lcm e_v of its denominators,
    and the form keeps e_v, the integer vector e_v v and the integer row
    (D G)(e_v v), keyed by the value of v.  A call pairs its k distinct
    arguments with k(k+1)/2 integer dot products, sums over the perfect
    matchings of the arguments in integers and divides once, by D^n times
    the product of e_v over all 2n arguments.  The form keeps one row per
    distinct argument value it has seen.
    """

    base_form: tuple
    degree: int
    _den: int = field(init=False, repr=False, compare=False)
    _gram: list = field(init=False, repr=False, compare=False)
    _rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_n(self.degree)
        check_limit("MAX_POWER_N", MAX_POWER_N, "n =", self.degree)
        g = tuple(tuple(Fraction(x) for x in row) for row in self.base_form)
        la.check_symmetric(g, DomainError, "base form")
        den = lcm(*(x.denominator for row in g for x in row))
        object.__setattr__(self, "base_form", g)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_gram", [
            [x.numerator * (den // x.denominator) for x in row] for row in g])
        object.__setattr__(self, "_rows", {})

    def _row(self, v):
        """(e_v, e_v v, (D G)(e_v v)) for the argument v."""
        key = tuple(v)
        row = self._rows.get(key)
        if row is None:
            if len(key) != len(self._gram):
                raise DomainError(f"expected vectors of length "
                                  f"{len(self._gram)}, got {len(key)}")
            vec = [Fraction(x) for x in key]
            e = lcm(*(x.denominator for x in vec))
            ev = [x.numerator * (e // x.denominator) for x in vec]
            row = self._rows[key] = (e, ev, la.mat_vec(self._gram, ev))
        return row

    def __call__(self, args):
        n = self.degree
        args = tuple(args)
        if len(args) != 2 * n:
            raise DomainError(f"expected {2 * n} vectors, got {len(args)}")
        # equal arguments share one row object, so kinds go by its id
        kinds = {}
        rows = []
        idx = []
        den = self._den ** n
        for v in args:
            row = self._row(v)
            i = kinds.setdefault(id(row), len(rows))
            if i == len(rows):
                rows.append(row)
            idx.append(i)
            den *= row[0]
        pair = [[0] * len(rows) for _ in rows]
        for a, (_, ev, _) in enumerate(rows):
            for b in range(a, len(rows)):
                pair[a][b] = pair[b][a] = sum(
                    x * y for x, y in zip(ev, rows[b][2]))

        @cache
        def matched(rest):
            # the sum over perfect matchings of rest, expanded along rest[0]
            if not rest:
                return 1
            return sum(pair[rest[0]][rest[i]] *
                       matched(rest[1:i] + rest[i + 1:])
                       for i in range(1, len(rest)))

        return Fraction(matched(tuple(sorted(idx))), den)


def recover_form(w, n, xi, xi_norm):
    """Recover the unique symmetric form q with q(xi, xi) = xi_norm whose
    symmetrized 2n-fold product is ``w``.

    ``w`` is a callback taking a sequence of 2n rational vectors, each of
    them xi or a unit vector e_i of Q^r, r = len(xi), as an int tuple.  At
    n = 1, q_ij = w(e_i, e_j); at n >= 2, q_ij is solved from
    w(xi^{2n-1}, e_i), w(xi^{2n-1}, e_j) and w(xi^{2n-2}, e_i, e_j) by the
    identities of the module docstring.  The returned Gram matrix is q on
    the standard basis.  InconsistencyError is raised unless
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
    basis = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    c_n = perfect_matchings(n)

    if n == 1:
        q = [[w((basis[i], basis[j])) for j in range(r)] for i in range(r)]
    else:
        # c_{n-1} N^{n-1} = den / (2n - 1)
        den = c_n * xi_norm ** (n - 1)
        head = (xi,) * (2 * n - 2)
        cross = [w(head + (xi, b)) / den for b in basis]  # q(xi, e_i)
        q = [[None] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                q[i][j] = q[j][i] = (
                    (2 * n - 1) * w(head + (basis[i], basis[j])) / den
                    - (2 * n - 2) * cross[i] * cross[j] / xi_norm)
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


@dataclass(frozen=True)
class DegreeRoot:
    """Solution of c_n x^n = d over the positive reals.

    ``root`` is the exact rational solution when one exists (then
    ``interval`` is the degenerate pair (root, root)); otherwise ``root``
    is None and ``interval`` isolates the irrational root.
    """

    root: object
    is_integral: bool
    interval: tuple


def degree_to_bb(d, n):
    """The positive root of c_n x^n = d, where c_n counts perfect matchings.

    Converts the top self-intersection degree of a polarization into its
    Beauville-Bogomolov norm.  Exact when the root is rational; otherwise
    returns an isolating interval of width at most ``INTERVAL_WIDTH``.
    """
    _check_n(n)
    check_limit("MAX_DEGREE_N", MAX_DEGREE_N, "n =", n)
    d = Fraction(d)
    if d <= 0:
        raise DomainError("degree must be positive")
    target = d / perfect_matchings(n)
    num = _integer_root(target.numerator, n)
    den = _integer_root(target.denominator, n)
    if num ** n == target.numerator and den ** n == target.denominator:
        root = Fraction(num, den)
        return DegreeRoot(root=root, is_integral=root.denominator == 1,
                          interval=(root, root))
    # The interval is the one that bisecting [0, h] returns, without the
    # bisection: the m halvings down to INTERVAL_WIDTH end on the cell of
    # step s = h/2^m that holds the root, [a s, (a+1) s] with
    # a = floor(root/s) the floor of the n-th root of target/s^n.  Here
    # n >= 2 (n = 1 has an exact root), and h^2 > target gives h^n > target.
    h = isqrt(target.numerator // target.denominator) + 1
    cells = -(-h * INTERVAL_WIDTH.denominator // INTERVAL_WIDTH.numerator)
    m = (cells - 1).bit_length()
    x = (target.numerator << (m * n)) // (target.denominator * h ** n)
    a = _integer_root(x, n) if x else 0
    return DegreeRoot(root=None, is_integral=False,
                      interval=(Fraction(a * h, 1 << m),
                                Fraction((a + 1) * h, 1 << m)))
