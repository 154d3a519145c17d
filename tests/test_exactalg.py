"""Exact polynomial/matrix algebra: pinned values, algebraic laws, and a
floating-point root oracle (numpy) for the rational Schur-Cohn test."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abmealy.errors import (
    DimensionError,
    FormatError,
    MatrixError,
    UnsupportedError,
)
from abmealy.analysis import witness_search
from abmealy.complete import GTildeElement, LocationMap, embed_scale, poly_action
from abmealy.exactalg import (
    HALF,
    X,
    HalfIntegralMatrix,
    IntPolynomial,
    Polynomial,
    RationalMatrix,
    RationalPolynomial,
    char_poly,
    chi_star,
    companion_from_chi,
    is_contracting,
    is_irreducible,
    is_unit_mod,
    mul_mod,
    parse_chi,
    parse_matrix,
    reduce_mod,
    resultant,
    serialize_matrix,
    try_divide_mod,
)

from conftest import (
    CHI_ERRORS,
    CORPUS_TO_1179,
    MAT_A_TEXT,
    contracting_chis,
    faddeev_leverrier,
    fraction_matrix,
)

CHI_A = RationalPolynomial.of(HALF, 1, 1)  # x^2 + x + 1/2
CHI_STAR_A = IntPolynomial.of(2, 2, 1)  # x^2 + 2x + 2


# -- polynomial classes -------------------------------------------------------


def test_int_polynomial_basics():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert p.constant == 1 and p.leading == 2
    zero = IntPolynomial()
    assert zero.is_zero() and zero.degree == -1 and str(zero) == "0"
    assert IntPolynomial.of(0, 0, 1).is_monic()
    assert not IntPolynomial.of(0, 0, 2).is_monic()
    assert p(3) == 7 and p(0) == 1
    with pytest.raises(TypeError):
        IntPolynomial([Fraction(1, 2)])
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_int_polynomial_arithmetic():
    one_plus_x = IntPolynomial.of(1, 1)
    assert one_plus_x * one_plus_x == IntPolynomial.of(1, 2, 1)
    assert one_plus_x + 1 == IntPolynomial.of(2, 1)
    assert 1 - one_plus_x == IntPolynomial.of(0, -1)
    assert 2 * one_plus_x == IntPolynomial.of(2, 2)
    assert -one_plus_x == IntPolynomial.of(-1, -1)
    assert one_plus_x - one_plus_x == IntPolynomial()
    assert X * X + 1 == IntPolynomial.of(1, 0, 1)
    assert one_plus_x == IntPolynomial.of(1, 1)
    assert IntPolynomial.of(5) == 5


def test_polynomial_str_forms():
    assert str(IntPolynomial.of(3, 2)) == "3 + 2x"
    assert str(IntPolynomial.of(-1, 1, 1)) == "-1 + x + x^2"
    assert str(RationalPolynomial.of(HALF, 1, 1)) == "1/2 + x + x^2"
    assert str(X) == "x"
    assert str(IntPolynomial.of(0, -2)) == "-2x"
    assert str(IntPolynomial.of(0, 0, 1)) == "x^2"
    assert str(IntPolynomial.of(1, 0, -3)) == "1 - 3x^2"


def test_rational_polynomial_basics():
    p = RationalPolynomial.of(HALF, 1, 1)
    assert p.degree == 2 and p.is_monic()
    assert p(Fraction(1, 2)) == Fraction(5, 4)
    assert not p.is_integral()
    with pytest.raises(TypeError):
        IntPolynomial(p.coeffs)
    q = RationalPolynomial.of(2, 3)
    assert q.is_integral() and q == IntPolynomial.of(2, 3)
    assert IntPolynomial.of(2, 3) == q and IntPolynomial.of(2, 3).is_integral()
    assert RationalPolynomial.of(1, 1) == IntPolynomial.of(1, 1)
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_equal_polynomials_hash_equal():
    assert RationalPolynomial is Polynomial and type(IntPolynomial.of(1)) is Polynomial
    groups = [
        [IntPolynomial((1, 2)), RationalPolynomial((1, 2)),
         Polynomial((Fraction(1), Fraction(2))), RationalPolynomial.of(1, 2, 0),
         Polynomial.of(1 / 2) * 2 + X * Fraction(4, 2), (X + HALF) * 2 - X * 0],
        [IntPolynomial.of(1), Polynomial.of(1 / 2) * 2, Polynomial.of(Fraction(3, 2)) - HALF],
        [RationalPolynomial.of(HALF, 1), Polynomial.of(1 / 2, 1), (2 * X + 1) * HALF],
        [IntPolynomial(), Polynomial.of(HALF) - HALF, Polynomial((Fraction(0),))],
    ]
    for group in groups:
        first = group[0]
        for p in group:
            assert p == first and hash(p) == hash(first)
            assert [type(c) for c in p.coeffs] == [type(c) for c in first.coeffs]
        assert len(set(group)) == 1
    assert len({p for group in groups for p in group}) == len(groups)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), max_size=6),
    st.lists(st.integers(-9, 9), max_size=6),
    st.lists(st.integers(-9, 9), max_size=6),
)
def test_int_polynomial_ring_laws(a, b, c):
    a, b, c = IntPolynomial(a), IntPolynomial(b), IntPolynomial(c)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + IntPolynomial() == a
    assert a * IntPolynomial.of(1) == a
    assert a - a == IntPolynomial()
    # evaluation is a ring homomorphism
    for x in (-2, 0, 3):
        assert (a * b + c)(x) == a(x) * b(x) + c(x)


# -- rational matrices ----------------------------------------------------------


def _mat(*rows):
    return RationalMatrix(rows)


def test_matrix_construction_errors():
    with pytest.raises(DimensionError):
        RationalMatrix([])
    with pytest.raises(DimensionError):
        RationalMatrix([[1, 2]])


def test_matrix_ops():
    a = _mat((1, 2), (3, 4))
    assert RationalMatrix.identity(2) == _mat((1, 0), (0, 1))
    assert a.det() == -2
    with pytest.raises(AttributeError):
        a.rows = ()


def test_matrix_det_and_inverse(mat_a):
    assert mat_a.inner.det() == HALF
    assert mat_a.inv_rows == ((0, -2), (1, -2))
    assert _mat((1, 2), (2, 4)).det() == 0


def test_matrix_solve_branches():
    a = _mat((1, 2), (3, 4))
    assert a.solve((5, 11)) == (Fraction(1), Fraction(2))
    sing = _mat((1, 1), (2, 2))
    assert sing.solve((3, 7)) is None  # inconsistent
    assert sing.solve((3, 6)) == (Fraction(3), Fraction(0))  # particular
    with pytest.raises(DimensionError):
        a.solve((1,))


def test_matrix_laws_random():
    rng = random.Random(4242)

    def rand(n):
        return RationalMatrix(
            tuple(
                Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)
            )
            for _ in range(n)
        )

    for _ in range(25):
        n = rng.randint(1, 3)
        a, b = rand(n), rand(n)
        fa = fraction_matrix(a)
        assert RationalMatrix((fa @ fraction_matrix(b)).tolist()).det() == a.det() * b.det()
        if a.det() != 0:
            assert (fa @ fraction_matrix(a, -1) == fraction_matrix(a, 0)).all()
            v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
            assert a.solve(tuple(fa @ np.array(v, dtype=object))) == v


# The three separate pivot loops that det, inverse and solve ran before they
# shared one Gauss-Jordan routine, kept as the oracle for that routine.


def oracle_det(rows):
    n = len(rows)
    m = [list(row) for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            f = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def oracle_inverse(rows):
    n = len(rows)
    m = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise MatrixError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def oracle_solve(rows, vec):
    n = len(rows)
    vec = tuple(Fraction(x) for x in vec)
    m = [list(row) + [vec[i]] for i, row in enumerate(rows)]
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(n):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if m[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = m[r][n]
    if len(pivots) < n:
        if tuple(sum(a * b for a, b in zip(r_, x)) for r_ in rows) != vec:
            return None
    return tuple(x)


def test_elimination_matches_the_separate_loops():
    rng = random.Random(2024)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    singular = 0
    for trial in range(600):
        n = 1 + trial % 6
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        if trial % 3 == 1:  # rank-deficient: a zero column or a dependent row
            if n == 1 or rng.random() < 0.3:
                col = rng.randrange(n)
                for row in rows:
                    row[col] = Fraction(0)
            else:
                i = rng.randrange(n)
                j, k = (rng.choice([r for r in range(n) if r != i]) for _ in range(2))
                a, b = entry(), entry()
                rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        a = RationalMatrix(rows)
        assert a.det() == oracle_det(a.rows)
        det, inverse = a._inverse_rows()
        try:
            want = oracle_inverse(a.rows)
        except MatrixError:
            singular += 1
            assert det == 0
        else:
            assert tuple(map(tuple, inverse)) == want
        x = np.array([entry() for _ in range(n)], dtype=object)
        for vec in (tuple(fraction_matrix(a) @ x), tuple(entry() for _ in range(n))):
            want = oracle_solve(a.rows, vec)
            assert a.solve(vec) == want
            assert a.solve_unique(vec) == (None if a.det() == 0 else want)
    assert singular >= 200


# -- half-integral matrices --------------------------------------------------------


def test_half_integral_validation(mat_a):
    assert mat_a.dim == 2
    assert mat_a.rows == ((Fraction(-1), Fraction(1)), (Fraction(-1, 2), Fraction(0)))
    with pytest.raises(MatrixError, match="half-integer"):
        HalfIntegralMatrix(_mat((Fraction(1, 3), 1), (0, HALF + 0)))
    with pytest.raises(MatrixError, match="integer"):
        HalfIntegralMatrix(_mat((HALF, HALF), (1, 0)))
    with pytest.raises(MatrixError, match="1/2"):
        HalfIntegralMatrix(RationalMatrix.identity(2))
    one = HalfIntegralMatrix([[-HALF]])
    assert one.dim == 1 and one.inner.det() == -HALF
    assert HalfIntegralMatrix([[HALF]]) != one
    assert HalfIntegralMatrix(mat_a.inner) == mat_a


# -- characteristic polynomials and companions ------------------------------------


def test_char_poly_pinned(mat_a):
    assert char_poly(mat_a) == CHI_A
    assert char_poly(RationalMatrix.identity(3)) == RationalPolynomial.of(-1, 3, -3, 1)


def test_char_poly_matches_determinant_pointwise():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = RationalMatrix(
            tuple(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)
            )
            for _ in range(n)
        )
        chi = char_poly(m)
        assert chi.is_monic() and chi.degree == n
        for t in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
            lhs = chi(t)
            rhs = RationalMatrix((t * fraction_matrix(m, 0) - fraction_matrix(m)).tolist()).det()
            assert lhs == rhs


# both chi of every corpus size class o7-o55275, as g in chi = x^m + g(x)/2
CORPUS_GS_ALL = CORPUS_TO_1179 + [(1, -1, 0, 1, 0, 0), (1, 1, 0, -1, 0, 0),
                                  (-1, 0, 1, 0, 0, -1), (-1, 0, 1, 0, 0, 1)]


def test_char_poly_matches_faddeev_leverrier():
    rng = random.Random(1903)
    matrices = []
    for n in range(1, 7):  # identity, zero and nilpotent Jordan block
        matrices += [RationalMatrix.identity(n), RationalMatrix([[0] * n] * n),
                     RationalMatrix([[int(j == i + 1) for j in range(n)] for i in range(n)])]
    for _ in range(2000):
        n = rng.randint(1, 6)
        matrices.append(RationalMatrix(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]))
    for g in CORPUS_GS_ALL:
        chi = Polynomial([Fraction(c, 2) for c in g] + [1])
        A = parse_matrix(serialize_matrix(companion_from_chi(chi)))
        assert char_poly(A) == chi
        matrices.append(A)
    for M in matrices:
        assert char_poly(M) == faddeev_leverrier(M), M


def test_companion_pinned(mat_a):
    assert companion_from_chi(CHI_A) == mat_a
    assert char_poly(companion_from_chi(CHI_A)) == CHI_A
    c = companion_from_chi(RationalPolynomial.of(-HALF, 1))
    assert c.rows == ((HALF,),)


def test_companion_round_trip_sample():
    for coeffs in (
        (HALF, 1, 1),
        (-HALF, 1),
        (HALF, Fraction(-3, 2), 0, 1),
        (-HALF, 2, -1, HALF, 1),
    ):
        chi = RationalPolynomial.of(*coeffs)
        A = companion_from_chi(chi)
        assert char_poly(A) == chi == A.chi


def test_matrix_keeps_chi_and_contraction_verdict(mat_a, monkeypatch):
    from abmealy import exactalg

    calls = {"char_poly": 0, "is_contracting": 0}

    def counted(name):
        fn = getattr(exactalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(exactalg, name, wrapper)

    counted("char_poly")
    counted("is_contracting")
    A = parse_matrix(MAT_A_TEXT)
    for _ in range(3):
        assert A.chi == CHI_A
        assert A.contracting is True
    assert calls == {"char_poly": 1, "is_contracting": 1}
    # the kept values leave equality, hashing and repr as they were
    fresh = parse_matrix(MAT_A_TEXT)
    assert A == fresh and hash(A) == hash(fresh) and repr(A) == repr(fresh)
    # a companion matrix keeps the chi it was built from
    companion = companion_from_chi(CHI_A)
    assert companion.chi == CHI_A
    assert calls["char_poly"] == 1
    expanding = companion_from_chi(RationalPolynomial.of(HALF, Fraction(-3, 2), 1))
    assert expanding.contracting is False


def test_companion_validation():
    with pytest.raises(MatrixError, match="monic"):
        companion_from_chi(RationalPolynomial.of(HALF, 2))
    with pytest.raises(MatrixError, match="degree"):
        companion_from_chi(RationalPolynomial.of(1))
    with pytest.raises(MatrixError, match="half-integer"):
        companion_from_chi(RationalPolynomial.of(HALF, Fraction(1, 3), 1))
    with pytest.raises(MatrixError, match=r"\+-1/2"):
        companion_from_chi(RationalPolynomial.of(1, 1, 1))


# -- contraction --------------------------------------------------------------


CONTRACTION_CASES = [
    (RationalPolynomial.of(-HALF, 1), True),  # root 1/2
    (IntPolynomial.of(-2, 1), False),  # root 2
    (CHI_A, True),  # roots (-1 +- i)/2
    (IntPolynomial.of(2, 2, 1), False),  # roots -1 +- i
    (RationalPolynomial.of(Fraction(-3, 8), Fraction(1, 4), 1), True),  # 1/2, -3/4
    (RationalPolynomial.of(HALF, Fraction(-9, 4), 1), False),
    (IntPolynomial.of(1, 0, 1), False),  # roots on the unit circle
    (RationalPolynomial.of(HALF, Fraction(-3, 2), 1), False),  # root at exactly 1
]


@pytest.mark.parametrize("chi, expect", CONTRACTION_CASES)
def test_is_contracting_pinned(chi, expect):
    assert is_contracting(chi) is expect


def test_is_contracting_requires_monic():
    with pytest.raises(MatrixError, match="monic"):
        is_contracting(IntPolynomial.of(1, 2))
    assert is_contracting(IntPolynomial.of(1)) is True  # no roots at all


def test_is_contracting_agrees_with_numpy_roots():
    rng = random.Random(31337)
    checked = 0
    while checked < 60:
        deg = rng.randint(1, 5)
        coeffs = [
            Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(deg)
        ]
        chi = RationalPolynomial(coeffs + [Fraction(1)])
        roots = np.roots([float(c) for c in reversed(chi.coeffs)])
        radius = max(abs(r) for r in roots)
        if abs(radius - 1.0) < 1e-6:
            continue  # marginal: float roots cannot call it
        assert is_contracting(chi) is bool(radius < 1.0), str(chi)
        checked += 1


# -- chi* -----------------------------------------------------------------------


def test_chi_star_pinned():
    assert chi_star(CHI_A) == CHI_STAR_A
    assert chi_star(RationalPolynomial.of(-HALF, 1)) == IntPolynomial.of(-2, 1)
    assert chi_star(RationalPolynomial.of(HALF, 1)) == IntPolynomial.of(2, 1)
    star = chi_star(RationalPolynomial.of(-HALF, Fraction(3, 2), 0, 1))
    assert star == IntPolynomial.of(-2, 0, -3, 1)
    assert star.is_monic() and abs(star.constant) == 2


def test_chi_star_errors():
    with pytest.raises(MatrixError, match="degree"):
        chi_star(RationalPolynomial.of(3))
    with pytest.raises(MatrixError, match="zero constant"):
        chi_star(RationalPolynomial.of(0, 1, 1))
    with pytest.raises(MatrixError, match="not integral"):
        chi_star(RationalPolynomial.of(HALF, Fraction(1, 3), 1))


def test_chi_star_is_char_poly_of_inverse(mat_a):
    for A in (mat_a, companion_from_chi(RationalPolynomial.of(-HALF, 1, 0, 1))):
        chi = char_poly(A)
        inv = RationalMatrix(A.inv_rows)
        assert chi_star(chi).is_integral() and char_poly(inv) == chi_star(chi)


# -- modular arithmetic in Z[x]/modulus ----------------------------------------


def test_reduce_mod_pinned():
    x4 = IntPolynomial.of(0, 0, 0, 0, 1)
    assert reduce_mod(x4, CHI_STAR_A) == IntPolynomial.of(-4)
    assert reduce_mod(IntPolynomial.of(1, 1), CHI_STAR_A) == IntPolynomial.of(1, 1)
    assert reduce_mod(CHI_STAR_A, CHI_STAR_A) == IntPolynomial()
    assert mul_mod(
        IntPolynomial.of(1, 1), IntPolynomial.of(1, 1), CHI_STAR_A
    ) == IntPolynomial.of(-1)
    with pytest.raises(MatrixError, match="monic"):
        reduce_mod(X, IntPolynomial.of(1, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), max_size=6),
    st.lists(st.integers(-9, 9), max_size=4),
)
def test_reduce_mod_is_homomorphism(a, t):
    a, t = IntPolynomial(a), IntPolynomial(t)
    m = CHI_STAR_A
    assert reduce_mod(a + m * t, m) == reduce_mod(a, m)
    b = IntPolynomial.of(3, -1, 2)
    assert reduce_mod(a * b, m) == mul_mod(reduce_mod(a, m), reduce_mod(b, m), m)
    r = reduce_mod(a, m)
    assert r.degree < m.degree


def test_try_divide_mod_pinned():
    q, p = IntPolynomial.of(-1, 1), IntPolynomial.of(3, 2)
    assert try_divide_mod(q, p, CHI_STAR_A) == IntPolynomial.of(1, 1)
    assert try_divide_mod(IntPolynomial.of(1), p, CHI_STAR_A) is None
    assert try_divide_mod(p, IntPolynomial.of(1), CHI_STAR_A) == p
    with pytest.raises(MatrixError, match="cannot divide"):
        try_divide_mod(IntPolynomial.of(1), CHI_STAR_A, CHI_STAR_A)


def test_try_divide_mod_reducible_modulus():
    # x^2 - 1 is reducible: multiplication by 1+x is singular, but consistent
    # targets still get an exact verified answer
    m = IntPolynomial.of(-1, 0, 1)
    p = IntPolynomial.of(1, 1)
    assert try_divide_mod(IntPolynomial.of(2, 2), p, m) == IntPolynomial.of(2)
    assert try_divide_mod(IntPolynomial.of(1), p, m) is None


def test_try_divide_mod_random_round_trip():
    rng = random.Random(555)
    for _ in range(40):
        r = IntPolynomial([rng.randint(-5, 5) for _ in range(rng.randint(0, 3))])
        p = IntPolynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])
        if reduce_mod(p, CHI_STAR_A).is_zero():
            continue
        q = mul_mod(r, p, CHI_STAR_A)
        got = try_divide_mod(q, p, CHI_STAR_A)
        # x^2+2x+2 is irreducible so division, when integral, is unique
        assert got is not None
        assert mul_mod(got, p, CHI_STAR_A) == reduce_mod(q, CHI_STAR_A)


# -- resultants and units -----------------------------------------------------


def test_resultant_pinned():
    assert resultant(IntPolynomial.of(3, 2), CHI_STAR_A) == 5
    assert resultant(IntPolynomial.of(1, 1), CHI_STAR_A) == 1
    assert resultant(IntPolynomial(), X) == 0
    assert resultant(IntPolynomial.of(3), IntPolynomial.of(0, 0, 1)) == 9


def test_resultant_oracles():
    rng = random.Random(606)

    def rand_poly(lo, hi):
        deg = rng.randint(lo, hi)
        cs = [rng.randint(-4, 4) for _ in range(deg)] + [rng.randint(1, 3)]
        return IntPolynomial(cs)

    for _ in range(30):
        g = rand_poly(1, 3)
        a = rng.randint(-4, 4)
        # Res(x - a, g) = g(a)
        assert resultant(IntPolynomial.of(-a, 1), g) == g(a)
        p, q = rand_poly(1, 2), rand_poly(1, 2)
        n, m = p.degree, q.degree
        assert resultant(q, p) == (-1) ** (n * m) * resultant(p, q)
        r = rand_poly(1, 2)
        assert resultant(p * q, r) == resultant(p, r) * resultant(q, r)


def test_is_unit_mod():
    assert is_unit_mod(IntPolynomial.of(1, 1), CHI_STAR_A) is True
    assert is_unit_mod(IntPolynomial.of(3, 2), CHI_STAR_A) is False
    assert is_unit_mod(IntPolynomial.of(1), CHI_STAR_A) is True
    assert is_unit_mod(IntPolynomial.of(-1), CHI_STAR_A) is True
    assert is_unit_mod(IntPolynomial(), CHI_STAR_A) is False
    assert is_unit_mod(CHI_STAR_A, CHI_STAR_A) is False
    # units are exactly the invertibles: unit => division by it always works
    u = IntPolynomial.of(1, 1)
    got = try_divide_mod(IntPolynomial.of(1), u, CHI_STAR_A)
    assert got is not None and mul_mod(got, u, CHI_STAR_A) == IntPolynomial.of(1)


# -- integer-only entry points -------------------------------------------------

MAT_A = parse_matrix(MAT_A_TEXT)
GOOD_P = Polynomial.of(Fraction(3), Fraction(2))  # 3 + 2x, integral
BAD_P = Polynomial.of(Fraction(1, 2), 1)
GOOD_MODULUS = Polynomial.of(Fraction(2), Fraction(2), Fraction(1))  # CHI_STAR_A
BAD_MODULUS = CHI_A

INTEGER_ONLY = {
    "reduce_mod": (lambda p: reduce_mod(p, CHI_STAR_A), False),
    "reduce_mod-modulus": (lambda m: reduce_mod(X * X, m), True),
    "mul_mod": (lambda p: mul_mod(X, p, CHI_STAR_A), False),
    "mul_mod-modulus": (lambda m: mul_mod(X, X, m), True),
    "resultant": (lambda p: resultant(p, CHI_STAR_A), False),
    "is_unit_mod": (lambda p: is_unit_mod(p, CHI_STAR_A), False),
    "try_divide_mod": (lambda p: try_divide_mod(p, IntPolynomial.of(1, 1), CHI_STAR_A), False),
    "poly_action": (lambda p: poly_action(p, (1, 0), MAT_A), False),
    "witness_search": (lambda m: witness_search(m, 4), True),
    "embed_scale": (lambda p: embed_scale(IntPolynomial.of(1), p, CHI_STAR_A), False),
    "GTildeElement": (lambda p: GTildeElement((1, 0), p), False),
    "LocationMap": (lambda p: LocationMap(p=p, e=(3, 2), assignment={}), False),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ONLY))
def test_integer_only_functions_reject_non_integral_polynomials(name):
    call, modulus = INTEGER_ONLY[name]
    good, bad = (GOOD_MODULUS, BAD_MODULUS) if modulus else (GOOD_P, BAD_P)
    with pytest.raises(TypeError, match="integer polynomial expected"):
        call(bad)
    assert call(good) == call(IntPolynomial(int(c) for c in good.coeffs))


# -- irreducibility ---------------------------------------------------------------


IRREDUCIBILITY_CASES = [
    (IntPolynomial.of(2, 2, 1), True),
    (IntPolynomial.of(-1, 0, 1), False),
    (IntPolynomial.of(1, 1, 1), True),
    (CHI_A, True),
    (IntPolynomial.of(4, 0, 0, 0, 1), False),  # (x^2-2x+2)(x^2+2x+2)
    (IntPolynomial.of(1, 0, 0, 0, 1), True),
    (IntPolynomial.of(1, 1, 0, 0, 0, 1), False),  # (x^2+x+1)(x^3-x^2+1)
    (IntPolynomial.of(1, 0, 1, 0, 1), False),  # (x^2+x+1)(x^2-x+1)
    (X, True),
    (IntPolynomial.of(0, 0, 1), False),
    (IntPolynomial.of(7), False),
    (IntPolynomial(), False),
]


@pytest.mark.parametrize("p, expect", IRREDUCIBILITY_CASES)
def test_is_irreducible_pinned(p, expect):
    assert is_irreducible(p) is expect


def test_every_small_contracting_chi_is_irreducible():
    # locate's one cycle relies on it: a factor of chi* with constant +-1
    # would have roots of product modulus 1, all outside the unit circle
    chis = contracting_chis()
    assert len(chis) == 58
    assert all(is_irreducible(chi) for chi in chis)


def test_is_irreducible_degree_cap():
    assert is_irreducible(IntPolynomial.of(3, 0, 0, 0, 0, 0, 1)) is True  # x^6+3
    with pytest.raises(UnsupportedError, match="degree 6"):
        is_irreducible(IntPolynomial.of(1, 1, 0, 0, 0, 0, 0, 1))


def test_products_are_reducible():
    rng = random.Random(777)
    for _ in range(30):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        if d1 + d2 > 6:
            continue
        a = IntPolynomial([rng.randint(-3, 3) for _ in range(d1)] + [1])
        b = IntPolynomial([rng.randint(-3, 3) for _ in range(d2)] + [1])
        assert is_irreducible(a * b) is False, f"({a}) * ({b})"


# -- MATRIX text format -------------------------------------------------------------


def test_matrix_round_trip(mat_a):
    assert serialize_matrix(mat_a) == "dim 2\n-1 1\n-1/2 0\n"
    assert parse_matrix(serialize_matrix(mat_a)) == mat_a
    assert parse_matrix(MAT_A_TEXT) == mat_a


def test_parse_matrix_chi_form(mat_a):
    assert parse_matrix("chi 1/2 1 1") == mat_a
    assert parse_matrix("# c\nchi -1/2 1\n") == HalfIntegralMatrix([[HALF]])


def test_parse_matrix_comments_and_blanks(mat_a):
    text = "# header\n\ndim 2  # two\n-1 1\n\n-1/2 0 # last\n"
    assert parse_matrix(text) == mat_a


@pytest.mark.parametrize(
    "text, needle",
    [
        ("", "empty matrix input"),
        ("   \n# only comments\n", "empty matrix input"),
        ("chi 1/2 1 1\ndim 2", "line 2: unexpected content after chi line"),
        ("chi 1/2", "needs at least two"),
        ("chi 1/2 2", "monic"),
        ("chi 1 1", "1/2"),
        ("chi a 1", "bad coefficient"),
        ("foo", "expected 'dim <m>' or 'chi"),
        ("dim x", "bad dimension"),
        ("dim 0", "must be positive"),
        ("dim 2\n1 2", "expected 2 rows"),
        ("dim 2\n-1 1 3\n-1/2 0", "line 2: expected 2 entries"),
        ("dim 1\n1/0", "bad entry"),
        ("dim 2\n1 0\n0 1", "determinant"),
    ],
)
def test_parse_matrix_errors(text, needle):
    with pytest.raises(FormatError) as exc:
        parse_matrix(text)
    assert needle in str(exc.value)


def test_parse_chi_reads_exact_monic_coefficients():
    assert parse_chi("1/2 1 1") == Polynomial([Fraction(1, 2), 1, 1])
    assert parse_chi(" 0.5\t1 ") == Polynomial([Fraction(1, 2), 1])


@pytest.mark.parametrize("coeffs, message", CHI_ERRORS)
def test_parse_chi_errors_are_the_matrix_chi_line_errors(coeffs, message):
    with pytest.raises(FormatError) as exc:
        parse_chi(coeffs)
    assert str(exc.value) == message
    with pytest.raises(FormatError) as exc:
        parse_matrix(f"# c\nchi {coeffs}\n")
    assert str(exc.value) == f"line 2: {message}"
