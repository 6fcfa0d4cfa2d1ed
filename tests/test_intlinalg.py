from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import k3lattice._intlinalg as la

# property tests stay deterministic so that tier-1 runs are reproducible
ORACLE = settings(derandomize=True, deadline=None, database=None,
                  max_examples=200)


def square(entries):
    return st.integers(0, 6).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def sympy_det(a):
    m = sympy.Matrix(len(a), len(a),
                     [sympy.Rational(x.numerator, x.denominator)
                      for row in a for x in row])
    d = m.det()
    return Fraction(int(d.p), int(d.q))


@ORACLE
@given(square(st.integers(-30, 30)))
def test_det_integer_against_sympy(a):
    d = la.det(a)
    assert type(d) is int
    assert d == sympy_det(a)


@ORACLE
@given(square(st.builds(Fraction, st.integers(-99, 99),
                        st.integers(1, 12))))
def test_det_rational_against_sympy(a):
    assert la.det(a) == sympy_det(a)


@ORACLE
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_congruence_is_triple_product(n, m, data):
    ints = st.integers(-20, 20)
    g = data.draw(st.lists(st.lists(ints, min_size=m, max_size=m),
                           min_size=n, max_size=n))
    a = data.draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    expected = [[sum(g[k][i] * a[k][l] * g[l][j]
                     for k in range(n) for l in range(n))
                 for j in range(m)] for i in range(m)]
    assert la.congruence(g, a) == expected
