"""Exact linear and polynomial algebra over the rationals and integers.

Everything here is exact: rationals are arbitrary-precision Fractions and
matrices are dense tuples of Fractions.  One `Polynomial` type serves over
both Q and Z: its coefficient tuple is written constant-first with no
trailing zeros, integral coefficients stored as int and the rest as
Fraction; functions of Z[x] accept exactly the integral ones.  One
Gauss-Jordan routine does every elimination, one loop every division.
Floating point never appears; contraction (all eigenvalues strictly
inside the unit disk) is decided by the Schur-Cohn recursion in rational
arithmetic.

The half-integral matrices of interest have half-integers in their first
column, integers elsewhere, and determinant +-1/2, so their inverses are
integral.  Their characteristic polynomials have the shape x^m + g(x)/2 with
g integral and constant term +-1; the reversed polynomial chi* is monic and
integral with constant term +-2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt

from .errors import DimensionError, FormatError, MatrixError, UnsupportedError, content_lines

HALF = Fraction(1, 2)


# -- polynomials ------------------------------------------------------------------


def _exact(c):
    """c as an exact number: an int when it is integral, else a Fraction."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _format_poly(coeffs) -> str:
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "x" if mag == 1 else f"{mag}x"
        else:
            body = f"x^{i}" if mag == 1 else f"{mag}x^{i}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


class Polynomial:
    """Rational polynomial, coefficients constant-first, no trailing zeros.

    Integral coefficients are stored as int and the others as Fraction, so
    equal polynomials have equal `coeffs` tuples and equal hashes.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def of(cls, *coeffs) -> "Polynomial":
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    @property
    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return _format_poly(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


def _as_poly(v):
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, (int, Fraction)):
        return Polynomial((v,))
    return NotImplemented


def _rat_poly(p) -> Polynomial:
    q = _as_poly(p)
    if q is NotImplemented:
        raise TypeError(f"polynomial expected, got {p!r}")
    return q


def _int_poly(p) -> Polynomial:
    """p as an integral Polynomial: an int is a constant, a tuple or list
    holds int coefficients, and anything else raises TypeError."""
    if isinstance(p, (tuple, list)):
        return IntPolynomial(p)
    q = _as_poly(p)
    if q is NotImplemented or not q.is_integral():
        raise TypeError(f"integer polynomial expected, got {p!r}")
    return q


def IntPolynomial(coeffs=()) -> Polynomial:
    """Polynomial from int coefficients only; TypeError on any other."""
    coeffs = tuple(coeffs)
    for c in coeffs:
        if not isinstance(c, int):
            raise TypeError(f"integer coefficient expected, got {c!r}")
    return Polynomial(coeffs)


IntPolynomial.of = lambda *coeffs: IntPolynomial(coeffs)  # mirrors Polynomial.of
RationalPolynomial = Polynomial
X = Polynomial((0, 1))


def _poly_divmod(p: Polynomial, d: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(q, r) with p = q d + r and deg r < deg d over Q, d nonzero: the one
    division loop.  By a monic d, integral p gives integral q and r."""
    dc, r = d.coeffs, list(p.coeffs)
    n, lead = len(dc) - 1, dc[-1]
    q = [0] * max(len(r) - n, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + n]
        if c:
            if lead != 1:
                c = Fraction(c) / lead
            q[i] = c
            for j in range(n):
                r[i + j] -= c * dc[j]
    return Polynomial(q), Polynomial(r[:n])


# -- exact matrices -------------------------------------------------------------

def _gauss_jordan(rows, n: int):
    """Gauss-Jordan elimination of Fraction rows on their first n columns.

    Returns (reduced rows, pivot column of each leading row, determinant of
    the first n columns); the determinant is 0 when those columns are
    singular.  This is the one pivot loop behind det, solve, char_poly,
    resultant and the HalfIntegralMatrix check.
    """
    m = [list(row) for row in rows]
    pivots = []
    det = Fraction(1)
    for col in range(n):
        top = len(pivots)
        pivot = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != top:
            m[top], m[pivot] = m[pivot], m[top]
            det = -det
        # The pivot row is 0 left of col, so only columns from col on change.
        # Zero entries are skipped: Fraction arithmetic is the whole cost and
        # companion and Sylvester matrices are sparse.
        p = m[top][col]
        det *= p
        tail = [x / p if x else x for x in m[top][col:]]
        m[top][col:] = tail
        for r, row in enumerate(m):
            f = row[col]
            if r != top and f:
                row[col:] = [x - f * y if y else x for x, y in zip(row[col:], tail)]
        pivots.append(col)
    return m, pivots, det


class RationalMatrix:
    """Dense square matrix of Fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
        )
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionError("matrix must be square and non-empty")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(one if i == j else zero for j in range(n)) for i in range(n))

    def det(self) -> Fraction:
        return _gauss_jordan(self.rows, self.dim)[2]

    def _inverse_rows(self):
        """(det, rows of the inverse) from one elimination on [self | I];
        the rows mean nothing when det is 0."""
        n = self.dim
        eye = RationalMatrix.identity(n).rows
        rows, _, det = _gauss_jordan([a + b for a, b in zip(self.rows, eye)], n)
        return det, [row[n:] for row in rows]

    def _reduce_with(self, vec):
        """(reduced rows, pivot columns) of the augmented matrix [self | vec]."""
        n = self.dim
        vec = tuple(Fraction(x) for x in vec)
        if len(vec) != n:
            raise DimensionError("vector length mismatch")
        return _gauss_jordan([row + (b,) for row, b in zip(self.rows, vec)], n)[:2]

    def solve_unique(self, vec) -> tuple[Fraction, ...] | None:
        """The solution of self @ x = vec, or None when self is singular.

        One elimination decides both: n pivots leave the solution in the
        last column of the reduced rows.
        """
        rows, pivots = self._reduce_with(vec)
        if len(pivots) < self.dim:
            return None
        return tuple(row[-1] for row in rows)

    def solve(self, vec) -> tuple[Fraction, ...] | None:
        """Unique-or-particular exact solution of self @ x = vec, else None.

        When the system is underdetermined the free variables are set to 0;
        inconsistent systems return None.
        """
        n = self.dim
        rows, pivots = self._reduce_with(vec)
        if any(row[n] != 0 for row in rows[len(pivots):]):
            return None
        x = [Fraction(0)] * n
        for row, col in zip(rows, pivots):
            x[col] = row[n]
        return tuple(x)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)

    def __repr__(self):
        return f"RationalMatrix({[[str(x) for x in row] for row in self.rows]})"


class HalfIntegralMatrix:
    """Matrix with half-integral first column, integral rest, det = +-1/2.

    Its inverse is integral (it is +-2 adj(A)); `inv_rows` holds its rows
    as int tuples, computed once with the determinant check, and `rows2`
    the int rows of 2A.  `companion` is 2A's first column when A has the
    companion shape (columns 1..m-1 of 2A are 2 on the superdiagonal and 0
    elsewhere), else None.  `chi`, `chi_star` and `contracting` are computed
    on first use and kept in the instance.
    """

    __slots__ = ("inner", "inv_rows", "rows2", "companion", "_chi", "_chi_star",
                 "_contracting")

    def __init__(self, inner: RationalMatrix):
        if not isinstance(inner, RationalMatrix):
            inner = RationalMatrix(inner)
        for i, row in enumerate(inner.rows):
            if row[0].denominator not in (1, 2):
                raise MatrixError(
                    f"entry ({i}, 0) = {row[0]} must be a half-integer"
                )
            for j, x in enumerate(row[1:], start=1):
                if x.denominator != 1:
                    raise MatrixError(f"entry ({i}, {j}) = {x} must be an integer")
        det, inv = inner._inverse_rows()
        if abs(det) != HALF:
            raise MatrixError(f"determinant {det} must have absolute value 1/2")
        if any(x.denominator != 1 for row in inv for x in row):
            raise RuntimeError(f"half-integral matrix with determinant {det} has a "
                               "non-integral inverse")
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "inv_rows", tuple(tuple(map(int, row)) for row in inv))
        rows2 = tuple(tuple(int(2 * x) for x in row) for row in inner.rows)
        shape = all(x == 2 * (j == i + 1)
                    for i, row in enumerate(rows2) for j, x in enumerate(row) if j)
        object.__setattr__(self, "rows2", rows2)
        object.__setattr__(self, "companion", tuple(r[0] for r in rows2) if shape else None)
        for slot in ("_chi", "_chi_star", "_contracting"):
            object.__setattr__(self, slot, None)

    def __setattr__(self, *a):
        raise AttributeError("HalfIntegralMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def rows(self):
        return self.inner.rows

    @property
    def chi(self) -> Polynomial:
        """The characteristic polynomial.  With the companion shape, row i of
        A is (c_i / 2) e1 + e_(i+1), so chi = x^m - sum (c_i / 2) x^(m-1-i) is
        read off `companion` with no elimination."""
        if self._chi is None:
            c = self.companion
            chi = (char_poly(self) if c is None
                   else Polynomial([Fraction(-x, 2) for x in reversed(c)] + [Fraction(1)]))
            object.__setattr__(self, "_chi", chi)
        return self._chi

    @property
    def chi_star(self) -> Polynomial:
        """The characteristic polynomial of the inverse: the reversal of chi."""
        if self._chi_star is None:
            object.__setattr__(self, "_chi_star", chi_star(self.chi))
        return self._chi_star

    @property
    def contracting(self) -> bool:
        """Whether every root of chi lies strictly inside the unit disk."""
        if self._contracting is None:
            object.__setattr__(self, "_contracting", is_contracting(self.chi))
        return self._contracting

    def __eq__(self, other):
        if not isinstance(other, HalfIntegralMatrix):
            return NotImplemented
        return self.inner == other.inner

    def __hash__(self):
        return hash(("HalfIntegralMatrix", self.inner))

    def __str__(self):
        return str(self.inner)

    def __repr__(self):
        return f"HalfIntegralMatrix({self.inner!r})"


def char_poly(M) -> Polynomial:
    """Characteristic polynomial det(xI - M) of an n x n matrix: the degree-n
    polynomial through its values det(kI - M) at k = 0..n, one elimination
    each, read off by one Vandermonde solve."""
    if isinstance(M, HalfIntegralMatrix):
        M = M.inner
    n = M.dim
    values = [_gauss_jordan([[k * (i == j) - x for j, x in enumerate(row)]
                             for i, row in enumerate(M.rows)], n)[2] for k in range(n + 1)]
    vandermonde = RationalMatrix([[k ** j for j in range(n + 1)] for k in range(n + 1)])
    return Polynomial(vandermonde.solve_unique(values))


def _validate_chi(chi: Polynomial) -> Polynomial:
    chi = _rat_poly(chi)
    if chi.degree < 1:
        raise MatrixError(f"chi must have degree >= 1, got {chi}")
    if not chi.is_monic():
        raise MatrixError(f"chi must be monic, got {chi}")
    for c in chi.coeffs[:-1]:
        if c.denominator not in (1, 2):
            raise MatrixError(f"coefficient {c} of {chi} is not a half-integer")
    if abs(chi.constant) != HALF:
        raise MatrixError(f"constant term of {chi} must be +-1/2")
    return chi


def companion_from_chi(chi) -> HalfIntegralMatrix:
    """Rational canonical form: chi's negated coefficients down the first
    column (highest first), identity superdiagonal; char_poly round-trips."""
    chi = _validate_chi(chi)
    m = chi.degree
    rows = []
    for i in range(m):
        row = [Fraction(0)] * m
        row[0] = -chi.coeffs[m - 1 - i]
        if i + 1 < m:
            row[i + 1] = Fraction(1)
        rows.append(tuple(row))
    return HalfIntegralMatrix(RationalMatrix(rows))


def is_contracting(chi) -> bool:
    """True iff all complex roots lie strictly inside the unit disk.

    Schur-Cohn: a polynomial f of degree n >= 1 with |f(0)| < |lead f| is
    contracting iff the reduced polynomial (lead(f)*f - f(0)*f~)/x is, where
    f~ has the reversed coefficients.  |f(0)| >= |lead f| means some root has
    modulus >= 1.  Everything stays rational, so the answer is exact.
    """
    chi = _rat_poly(chi)
    if not chi.is_monic() or chi.degree < 0:
        raise MatrixError(f"chi must be monic, got {chi}")
    f = list(chi.coeffs)
    while len(f) > 1:
        n = len(f) - 1
        a0, an = f[0], f[-1]
        if abs(a0) >= abs(an):
            return False
        f = [an * f[i] - a0 * f[n - i] for i in range(1, n + 1)]
    return True


def chi_star(chi) -> Polynomial:
    """Reversal x^m chi(1/x) / chi(0): the characteristic polynomial of the
    inverse matrix.  Monic, integral, constant term +-2."""
    chi = _rat_poly(chi)
    if chi.degree < 1:
        raise MatrixError(f"chi must have degree >= 1, got {chi}")
    c0 = chi.constant
    if c0 == 0:
        raise MatrixError("chi has zero constant term; reversal undefined")
    rev = Polynomial(Fraction(c) / c0 for c in reversed(chi.coeffs))
    if not rev.is_integral():
        raise MatrixError(f"reversal of {chi} is not integral")
    return rev


# -- arithmetic in Z[x] / modulus ------------------------------------------------

def _check_modulus(modulus) -> Polynomial:
    modulus = _int_poly(modulus)
    if modulus.degree < 1 or not modulus.is_monic():
        raise MatrixError(f"modulus must be monic of degree >= 1, got {modulus}")
    return modulus


def reduce_mod(p, modulus) -> Polynomial:
    """Remainder of p modulo a monic integer polynomial: an integer polynomial."""
    modulus = _check_modulus(modulus)
    return _poly_divmod(_int_poly(p), modulus)[1]


def mul_mod(p, q, modulus) -> Polynomial:
    return reduce_mod(_int_poly(p) * _int_poly(q), modulus)


def _mul_matrix_mod(p: Polynomial, modulus: Polynomial) -> RationalMatrix:
    """d x d matrix of multiplication by p on the basis 1, x, ..., x^(d-1)."""
    d = modulus.degree
    cols = []
    cur = reduce_mod(p, modulus)
    for _ in range(d):
        col = list(cur.coeffs) + [0] * (d - len(cur.coeffs))
        cols.append(col)
        cur = reduce_mod(cur * X, modulus)
    return RationalMatrix(tuple(tuple(cols[j][i] for j in range(d)) for i in range(d)))


def try_divide_mod(q, p, modulus) -> Polynomial | None:
    """Integer solution r of r*p = q in Z[x]/modulus, or None.

    Solves the d x d linear system of multiplication by p exactly over the
    rationals and keeps the solution only when it is integral and verifies.
    (For a reducible modulus with an underdetermined system only the
    free-variables-zero slice is tried.)
    """
    modulus = _check_modulus(modulus)
    p_red = reduce_mod(p, modulus)
    if p_red.is_zero():
        raise MatrixError(f"{p} is 0 modulo {modulus}; cannot divide")
    q_red = reduce_mod(q, modulus)
    d = modulus.degree
    M = _mul_matrix_mod(p_red, modulus)
    target = tuple(q_red.coeffs) + (0,) * (d - len(q_red.coeffs))
    sol = M.solve(target)
    if sol is None:
        return None
    r = Polynomial(sol)
    if not r.is_integral() or mul_mod(r, p_red, modulus) != q_red:
        return None
    return r


def resultant(p, q) -> int:
    """Resultant of two integer polynomials via the Sylvester determinant."""
    p = _int_poly(p)
    q = _int_poly(q)
    if p.is_zero() or q.is_zero():
        return 0
    n, m = p.degree, q.degree
    if n == 0:
        return p.constant ** m
    if m == 0:
        return q.constant ** n
    size = n + m
    rows = []
    pc = list(reversed(p.coeffs))  # highest degree first
    qc = list(reversed(q.coeffs))
    for i in range(m):
        rows.append(tuple([0] * i + pc + [0] * (size - n - 1 - i)))
    for i in range(n):
        rows.append(tuple([0] * i + qc + [0] * (size - m - 1 - i)))
    det = RationalMatrix(rows).det()
    if det.denominator != 1:
        raise RuntimeError(f"integer Sylvester matrix has determinant {det}")
    return int(det)


def is_unit_mod(p, modulus) -> bool:
    """p is a unit of Z[x]/modulus iff |Res(p, modulus)| = 1."""
    modulus = _check_modulus(modulus)
    p_red = reduce_mod(p, modulus)
    if p_red.is_zero():
        return False
    return abs(resultant(p_red, modulus)) == 1


# -- irreducibility over Q -------------------------------------------------------

MAX_IRREDUCIBILITY_DEGREE = 6


def _primitive_int(chi: Polynomial) -> list[int]:
    from math import gcd, lcm

    denom = lcm(*(c.denominator for c in chi.coeffs))
    ints = [int(c * denom) for c in chi.coeffs]
    g = gcd(*ints)
    return [c // g for c in ints]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@lru_cache(maxsize=1024)
def is_irreducible(chi) -> bool:
    """Exact irreducibility over Q, supported up to degree 6.

    Scales to a primitive integer polynomial and searches exhaustively for a
    proper factor of degree <= deg/2 with coefficients inside the Mignotte
    bound |h_i| <= 2^k * ||f||_2, leading coefficient dividing lead(f) and
    constant dividing f(0); candidate survival is decided by exact division.
    Raises UnsupportedError beyond degree 6.
    """
    chi = _rat_poly(chi)
    if chi.degree > MAX_IRREDUCIBILITY_DEGREE:
        raise UnsupportedError(
            f"irreducibility is only decided up to degree {MAX_IRREDUCIBILITY_DEGREE}; "
            f"got degree {chi.degree}"
        )
    if chi.degree < 1:
        return False
    if chi.degree == 1:
        return True
    f = _primitive_int(chi)
    deg, fpoly = len(f) - 1, Polynomial(f)
    if f[0] == 0:
        return False  # divisible by x
    fp1 = sum(f)
    fm1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(f))
    if fp1 == 0 or fm1 == 0:
        return False  # root at +-1
    norm2 = isqrt(sum(c * c for c in f))
    for k in range(1, deg // 2 + 1):
        bound = (1 << k) * (norm2 + 1)
        span = range(-bound, bound + 1)
        for lead in _divisors(f[-1]):
            for const in _divisors(f[0]):
                for c0 in (const, -const):
                    for mid in product(span, repeat=k - 1):
                        h = (c0, *mid, lead)
                        hp1 = sum(h)
                        if hp1 == 0 or fp1 % hp1:
                            continue
                        hm1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(h))
                        if hm1 == 0 or fm1 % hm1:
                            continue
                        if _poly_divmod(fpoly, Polynomial(h))[1].is_zero():
                            return False
    return True


# -- MATRIX text format ------------------------------------------------------------

def serialize_matrix(A: HalfIntegralMatrix) -> str:
    lines = [f"dim {A.dim}"]
    for row in A.rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_chi(text: str, line: int | None = None) -> Polynomial:
    """chi from its coefficients, constant first: at least two exact rational
    tokens, written monic.  FormatError names `line` when it is given."""
    try:
        coeffs = [Fraction(t) for t in text.split()]
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad coefficient: {exc}", line=line) from None
    if len(coeffs) < 2:
        raise FormatError("chi needs at least two coefficients", line=line)
    if coeffs[-1] != 1:
        raise FormatError("chi must be written monic (last coefficient 1)", line=line)
    return Polynomial(coeffs)


def parse_matrix(text: str) -> HalfIntegralMatrix:
    """MATRIX v1: either an explicit `dim m` block of rational rows, or a
    `chi c0 c1 ... 1` line giving the characteristic polynomial constant-first
    (expanded to its rational canonical form)."""
    lines = [(n, line.split()) for n, line in content_lines(text)]
    if not lines:
        raise FormatError("empty matrix input")
    n0, toks = lines[0]
    if toks[0] == "chi":
        if len(lines) > 1:
            raise FormatError("unexpected content after chi line", line=lines[1][0])
        try:
            return companion_from_chi(parse_chi(" ".join(toks[1:]), line=n0))
        except MatrixError as exc:
            raise FormatError(str(exc), line=n0) from None
    if toks[0] != "dim" or len(toks) != 2:
        raise FormatError("expected 'dim <m>' or 'chi <coeffs...>'", line=n0)
    try:
        m = int(toks[1])
    except ValueError:
        raise FormatError(f"bad dimension {toks[1]!r}", line=n0) from None
    if m < 1:
        raise FormatError("dimension must be positive", line=n0)
    if len(lines) != m + 1:
        raise FormatError(f"expected {m} rows after 'dim {m}', got {len(lines) - 1}")
    rows = []
    for n, toks in lines[1:]:
        if len(toks) != m:
            raise FormatError(f"expected {m} entries, got {len(toks)}", line=n)
        try:
            rows.append(tuple(Fraction(t) for t in toks))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad entry: {exc}", line=n) from None
    try:
        return HalfIntegralMatrix(RationalMatrix(rows))
    except MatrixError as exc:
        raise FormatError(str(exc)) from None
