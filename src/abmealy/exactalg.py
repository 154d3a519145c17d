"""Exact linear and polynomial algebra over the rationals and integers.

Everything here is exact: rationals are arbitrary-precision Fractions,
matrices are dense tuples of Fractions, and polynomials are coefficient
tuples written constant-first with no trailing zeros.  Floating point never
appears; contraction (all eigenvalues strictly inside the unit disk) is
decided by the Schur-Cohn recursion in rational arithmetic.

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

from .errors import DimensionError, FormatError, MatrixError, UnsupportedError

HALF = Fraction(1, 2)


# -- polynomial helpers over generic exact coefficients ------------------------

def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


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


class IntPolynomial:
    """Integer polynomial, coefficients constant-first, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = _trim(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def of(cls, *coeffs: int) -> "IntPolynomial":
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other):
        other = _as_int_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return IntPolynomial(_padd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_int_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return IntPolynomial(_padd(self.coeffs, _pneg(other.coeffs)))

    def __rsub__(self, other):
        other = _as_int_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return IntPolynomial(_pneg(self.coeffs))

    def __mul__(self, other):
        other = _as_int_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return IntPolynomial(_pmul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_rational(self) -> "RationalPolynomial":
        return RationalPolynomial(Fraction(c) for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("IntPolynomial", self.coeffs))

    def __str__(self):
        return _format_poly(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


def _as_int_poly(v):
    if isinstance(v, IntPolynomial):
        return v
    if isinstance(v, int):
        return IntPolynomial((v,))
    return NotImplemented


X = IntPolynomial((0, 1))


class RationalPolynomial:
    """Rational polynomial, coefficients constant-first, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(Fraction(c) for c in coeffs))

    def __setattr__(self, *a):
        raise AttributeError("RationalPolynomial is immutable")

    @classmethod
    def of(cls, *coeffs) -> "RationalPolynomial":
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __add__(self, other):
        other = _as_rat_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalPolynomial(_padd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_rat_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalPolynomial(_padd(self.coeffs, _pneg(other.coeffs)))

    def __rsub__(self, other):
        other = _as_rat_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return RationalPolynomial(_pneg(self.coeffs))

    def __mul__(self, other):
        other = _as_rat_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalPolynomial(_pmul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def to_int(self) -> IntPolynomial:
        if not self.is_integral():
            raise MatrixError(f"polynomial {self} is not integral")
        return IntPolynomial(int(c) for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial((other,))
        elif isinstance(other, IntPolynomial):
            other = other.to_rational()
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("RationalPolynomial", self.coeffs))

    def __str__(self):
        return _format_poly(self.coeffs)

    def __repr__(self):
        return f"RationalPolynomial({list(self.coeffs)})"


def _as_rat_poly(v):
    if isinstance(v, RationalPolynomial):
        return v
    if isinstance(v, (int, Fraction)):
        return RationalPolynomial((v,))
    if isinstance(v, IntPolynomial):
        return v.to_rational()
    return NotImplemented


def _coerce_rat_poly(p) -> RationalPolynomial:
    q = _as_rat_poly(p)
    if q is NotImplemented:
        raise TypeError(f"polynomial expected, got {p!r}")
    return q


# -- exact matrices -------------------------------------------------------------

class RationalMatrix:
    """Dense square matrix of Fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
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
        return cls(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
        )

    def __add__(self, other):
        self._same_dim(other)
        return RationalMatrix(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )

    def __sub__(self, other):
        self._same_dim(other)
        return RationalMatrix(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )

    def _same_dim(self, other):
        if not isinstance(other, RationalMatrix):
            raise TypeError("RationalMatrix expected")
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def scale(self, k) -> "RationalMatrix":
        k = Fraction(k)
        return RationalMatrix(tuple(k * x for x in row) for row in self.rows)

    def __matmul__(self, other):
        self._same_dim(other)
        n = self.dim
        cols = tuple(zip(*other.rows))
        return RationalMatrix(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows
        )

    def __pow__(self, k: int) -> "RationalMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        result = RationalMatrix.identity(self.dim)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def apply(self, vec) -> tuple[Fraction, ...]:
        vec = tuple(Fraction(x) for x in vec)
        if len(vec) != self.dim:
            raise DimensionError(f"vector length {len(vec)} vs dimension {self.dim}")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.rows)

    def trace(self) -> Fraction:
        return sum(self.rows[i][i] for i in range(self.dim))

    def det(self) -> Fraction:
        n = self.dim
        m = [list(row) for row in self.rows]
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

    def inverse(self) -> "RationalMatrix":
        n = self.dim
        m = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
             for i, row in enumerate(self.rows)]
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
        return RationalMatrix(tuple(row[n:]) for row in m)

    def solve(self, vec) -> tuple[Fraction, ...] | None:
        """Unique-or-particular exact solution of self @ x = vec, else None.

        When the system is underdetermined the free variables are set to 0
        and the candidate is checked; inconsistent systems return None.
        """
        n = self.dim
        vec = tuple(Fraction(x) for x in vec)
        if len(vec) != n:
            raise DimensionError("vector length mismatch")
        m = [list(row) + [vec[i]] for i, row in enumerate(self.rows)]
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
            got = self.apply(x)
            if got != vec:
                return None
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
    """Matrix with half-integral first column, integral rest, det = +-1/2."""

    __slots__ = ("inner",)

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
        if abs(inner.det()) != HALF:
            raise MatrixError(
                f"determinant {inner.det()} must have absolute value 1/2"
            )
        object.__setattr__(self, "inner", inner)

    def __setattr__(self, *a):
        raise AttributeError("HalfIntegralMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def rows(self):
        return self.inner.rows

    def apply(self, vec):
        return self.inner.apply(vec)

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


@lru_cache(maxsize=256)
def _inverse_int_rows(A: HalfIntegralMatrix) -> tuple[tuple[int, ...], ...]:
    inv = A.inner.inverse()
    rows = []
    for row in inv.rows:
        if any(x.denominator != 1 for x in row):
            raise MatrixError("inverse is not integral")
        rows.append(tuple(int(x) for x in row))
    return tuple(rows)


def char_poly(M) -> RationalPolynomial:
    """Characteristic polynomial det(xI - M) by the Faddeev-LeVerrier scheme."""
    if isinstance(M, HalfIntegralMatrix):
        M = M.inner
    n = M.dim
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    B = RationalMatrix.identity(n)
    for k in range(1, n + 1):
        MB = M @ B
        c = -MB.trace() / k
        coeffs[n - k] = c
        B = MB + RationalMatrix.identity(n).scale(c)
    return RationalPolynomial(coeffs)


def _validate_chi(chi: RationalPolynomial) -> RationalPolynomial:
    chi = _coerce_rat_poly(chi)
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
    chi = _coerce_rat_poly(chi)
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


def chi_star(chi) -> IntPolynomial:
    """Reversal x^m chi(1/x) / chi(0): the characteristic polynomial of the
    inverse matrix.  Monic, integral, constant term +-2."""
    chi = _coerce_rat_poly(chi)
    if chi.degree < 1:
        raise MatrixError(f"chi must have degree >= 1, got {chi}")
    c0 = chi.constant
    if c0 == 0:
        raise MatrixError("chi has zero constant term; reversal undefined")
    rev = RationalPolynomial(c / c0 for c in reversed(chi.coeffs))
    if not rev.is_integral():
        raise MatrixError(f"reversal of {chi} is not integral")
    return rev.to_int()


# -- arithmetic in Z[x] / modulus ------------------------------------------------

def _check_modulus(modulus: IntPolynomial) -> IntPolynomial:
    modulus = _as_int_poly(modulus)
    if modulus is NotImplemented:
        raise TypeError("integer polynomial modulus expected")
    if modulus.degree < 1 or not modulus.is_monic():
        raise MatrixError(f"modulus must be monic of degree >= 1, got {modulus}")
    return modulus


def reduce_mod(p: IntPolynomial, modulus: IntPolynomial) -> IntPolynomial:
    """Remainder of p modulo a monic integer polynomial (division-free)."""
    modulus = _check_modulus(modulus)
    p = _as_int_poly(p)
    if p is NotImplemented:
        raise TypeError("integer polynomial expected")
    d = modulus.degree
    r = list(p.coeffs)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            for j, mc in enumerate(modulus.coeffs):
                r[i - d + j] -= c * mc
    return IntPolynomial(r[:d])


def mul_mod(p: IntPolynomial, q: IntPolynomial, modulus: IntPolynomial) -> IntPolynomial:
    return reduce_mod(_as_int_poly(p) * _as_int_poly(q), modulus)


def _mul_matrix_mod(p: IntPolynomial, modulus: IntPolynomial) -> RationalMatrix:
    """d x d matrix of multiplication by p on the basis 1, x, ..., x^(d-1)."""
    d = modulus.degree
    cols = []
    cur = reduce_mod(p, modulus)
    for _ in range(d):
        col = list(cur.coeffs) + [0] * (d - len(cur.coeffs))
        cols.append(col)
        cur = reduce_mod(cur * X, modulus)
    return RationalMatrix(tuple(tuple(cols[j][i] for j in range(d)) for i in range(d)))


def try_divide_mod(
    q: IntPolynomial, p: IntPolynomial, modulus: IntPolynomial
) -> IntPolynomial | None:
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
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    r = IntPolynomial(int(x) for x in sol)
    if mul_mod(r, p_red, modulus) != q_red:
        return None
    return r


def resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Resultant of two integer polynomials via the Sylvester determinant."""
    p = _as_int_poly(p)
    q = _as_int_poly(q)
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


def is_unit_mod(p: IntPolynomial, modulus: IntPolynomial) -> bool:
    """p is a unit of Z[x]/modulus iff |Res(p, modulus)| = 1."""
    modulus = _check_modulus(modulus)
    p_red = reduce_mod(p, modulus)
    if p_red.is_zero():
        return False
    return abs(resultant(p_red, modulus)) == 1


# -- irreducibility over Q -------------------------------------------------------

MAX_IRREDUCIBILITY_DEGREE = 6


def _primitive_int(chi: RationalPolynomial) -> list[int]:
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
    chi = _coerce_rat_poly(chi)
    if chi.degree > MAX_IRREDUCIBILITY_DEGREE:
        raise UnsupportedError(
            f"irreducibility is only decided up to degree {MAX_IRREDUCIBILITY_DEGREE}; "
            f"got degree {chi.degree} (pass assume_irreducible=True to skip)"
        )
    if chi.degree < 1:
        return False
    if chi.degree == 1:
        return True
    f = _primitive_int(chi)
    deg = len(f) - 1
    if f[0] == 0:
        return False  # divisible by x
    fp1 = sum(f)
    fm1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(f))
    if fp1 == 0 or fm1 == 0:
        return False  # root at +-1
    norm2 = isqrt(sum(c * c for c in f))
    frat = RationalPolynomial(f)
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
                        if _divides(RationalPolynomial(h), frat):
                            return False
    return True


def _divides(h: RationalPolynomial, f: RationalPolynomial) -> bool:
    r = list(f.coeffs)
    hc = h.coeffs
    dh = len(hc) - 1
    lead = hc[-1]
    while len(r) - 1 >= dh and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dh:
            break
        q = r[-1] / lead
        off = len(r) - 1 - dh
        for i, c in enumerate(hc):
            r[off + i] -= q * c
        r.pop()
    return all(c == 0 for c in r)


# -- MATRIX text format ------------------------------------------------------------

def serialize_matrix(A: HalfIntegralMatrix) -> str:
    lines = [f"dim {A.dim}"]
    for row in A.rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> HalfIntegralMatrix:
    """MATRIX v1: either an explicit `dim m` block of rational rows, or a
    `chi c0 c1 ... 1` line giving the characteristic polynomial constant-first
    (expanded to its rational canonical form)."""
    lines = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((n, line.split()))
    if not lines:
        raise FormatError("empty matrix input")
    n0, toks = lines[0]
    if toks[0] == "chi":
        if len(lines) > 1:
            raise FormatError("unexpected content after chi line", line=lines[1][0])
        try:
            coeffs = [Fraction(t) for t in toks[1:]]
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad coefficient: {exc}", line=n0) from None
        if len(coeffs) < 2:
            raise FormatError("chi needs at least two coefficients", line=n0)
        if coeffs[-1] != 1:
            raise FormatError("chi must be written monic (last coefficient 1)", line=n0)
        try:
            return companion_from_chi(RationalPolynomial(coeffs))
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
