"""Shared machines and matrices used across the suite.

Every fixture is a frozen, hand-checked artifact; tests assert against
these rather than re-deriving them with library code.
"""

import functools
import random
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import sub

import numpy as np
import pytest

import abmealy
import abmealy.analysis
import abmealy.cli
import abmealy.complete
import abmealy.group
from abmealy import (
    AbelianReport,
    AbelianVerdict,
    GroupElement,
    HalfIntegralMatrix,
    MealyAutomaton,
    RationalMatrix,
    find_location_mismatch,
    parse_automaton,
    parse_matrix,
    poly_to_vector,
    unit_vector,
)
from abmealy.complete import (
    CompleteConfig,
    LocationMap,
    _anchor_cycle,
    _apply_int,
    _construct,
    _cycle_quotient,
    _fit,
    _horner,
    _integral_name,
    _require_contracting,
    _sigma,
    _step,
    format_vector,
)
from abmealy.analysis import InferResult
from abmealy.errors import (
    BoundExceededError,
    FormatError,
    LocateError,
    MatrixError,
    NotAbelianError,
)
from abmealy.exactalg import Polynomial, companion_from_chi, is_contracting
from abmealy.group import (
    DEFAULT_BOUND,
    IdentityResult,
    Verdict,
    format_combination,
)
from abmealy.mealy import Parity

A32_TEXT = """\
aut a32
states f f0 f1
trans f 0 1 f0
trans f 1 0 f1
trans f0 0 0 f
trans f0 1 1 f
trans f1 0 0 f0
trans f1 1 1 f0
"""

XYZ_TEXT = """\
aut xyz
states x y z
trans x 0 1 z
trans x 1 0 y
trans y 0 0 x
trans y 1 1 x
trans z 0 0 x
trans z 1 1 x
"""

LAMPLIGHTER_TEXT = """\
aut lamplighter
states alpha beta
trans alpha 0 1 beta
trans alpha 1 0 alpha
trans beta 0 0 beta
trans beta 1 1 alpha
"""

IDENTITY_TEXT = """\
aut identity
states I
copy I I
"""

FLIP_TEXT = """\
aut flip
states t
trans t 0 1 t
trans t 1 0 t
"""

# State a outputs 0 on both bits, so the machine is not invertible.
SINK_TEXT = """\
aut sink
states a b
trans a 0 0 b
trans a 1 0 a
copy b b
"""

# The seven-state principal machine of a32, transitions derived by hand from
# the residuation rules; the state names are the canonical difference labels.
PRINCIPAL_FIGURE_TEXT = """\
aut principal_a32
states I f-f0 f-f1 f0-f f0-f1 f1-f f1-f0
copy I I
trans f-f0 0 1 f0-f
trans f-f0 1 0 f1-f
trans f-f1 0 1 I
trans f-f1 1 0 f1-f0
trans f0-f 0 1 f-f1
trans f0-f 1 0 f-f0
copy f0-f1 f-f0
trans f1-f 0 1 f0-f1
trans f1-f 1 0 I
copy f1-f0 f0-f
"""

# Half-integral matrix with characteristic polynomial 1/2 + x + x^2.
MAT_A_TEXT = """\
# contracting, irreducible characteristic polynomial
dim 2
-1 1
-1/2 0
"""


@pytest.fixture(scope="session")
def a32():
    return parse_automaton(A32_TEXT)


@pytest.fixture(scope="session")
def xyz():
    return parse_automaton(XYZ_TEXT)


@pytest.fixture(scope="session")
def lamplighter():
    return parse_automaton(LAMPLIGHTER_TEXT)


@pytest.fixture(scope="session")
def identity_machine():
    return parse_automaton(IDENTITY_TEXT)


@pytest.fixture(scope="session")
def flip():
    return parse_automaton(FLIP_TEXT)


@pytest.fixture(scope="session")
def sink():
    return parse_automaton(SINK_TEXT)


@pytest.fixture(scope="session")
def principal_figure():
    return parse_automaton(PRINCIPAL_FIGURE_TEXT)


@pytest.fixture(scope="session")
def mat_a():
    return parse_matrix(MAT_A_TEXT)


def union_machine():
    """Two disjoint relabelled copies of the three-state machine."""
    base = parse_automaton(A32_TEXT)
    ren = {"f": "g", "f0": "g0", "f1": "g1"}
    trans = dict(base.transitions)
    for (s, b), (d, o) in base.transitions.items():
        trans[(ren[s], b)] = (ren[d], o)
    return MealyAutomaton(trans, name="union")


def verify_location(aut, A, locmap, max_len=10):
    """Brute-force oracle for a location map.

    Runs every non-empty word up to max_len from every state through both
    machines; it shares no code with `locate` or `LocationMap.validate`,
    which decide the same question exactly, transition by transition.
    """
    return find_location_mismatch(aut, A, locmap, max_len) is None


@functools.cache
def contracting_chis(max_dim=4, coeff_bound=3):
    """Every contracting x^m + g(x)/2 with m <= max_dim, g(0) = -1 or 1 and
    |g_i| <= coeff_bound: 58 of 800 candidates at the defaults."""
    chis = []
    for m in range(1, max_dim + 1):
        for g in product((-1, 1), *[range(-coeff_bound, coeff_bound + 1)] * (m - 1)):
            chi = Polynomial([Fraction(c, 2) for c in g] + [1])
            if is_contracting(chi):
                chis.append(chi)
    return tuple(chis)


def division_carries(chi_star):
    """Every carry of the division of w + 1 by chi* reachable from 1, as
    coefficient tuples of length deg chi*: digit c in {-1, 0, 1} is allowed
    at carry r when q = (r(0) + c) / chi*(0) is an integer, and the next
    carry is (r + c - q chi*) / x.  chi*(0) must be nonzero."""
    star = tuple(chi_star)
    start = (1,) + (0,) * (len(star) - 2)
    seen, todo = {start}, [start]
    while todo:
        r = todo.pop()
        for c in (-1, 0, 1):
            q, rem = divmod(r[0] + c, star[0])
            if rem == 0:
                full = [a - q * b for a, b in zip(r + (0,), star)]
                full[0] += c  # now 0, so the division by x drops it
                nxt = tuple(full[1:])
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return seen


def unit_config(g):
    """c(A, e1) for A the companion matrix of x^m + g(x)/2."""
    chi = Polynomial([Fraction(c, 2) for c in g] + [Fraction(1)])
    return CompleteConfig(companion_from_chi(chi), unit_vector(len(g)))


# chi of the 14 corpus orbit machines of 7 to 61 states
CORPUS_GS = [(1, 2), (1, -2), (1, 1, 1, 1), (1, -1, 1, -1), (1, 0, -2), (-1, 0, 2),
             (1, 0, 1, -1), (1, 0, 1, 1), (1, 0, -1, -1), (1, 0, -1, 1),
             (-1, 0, 1, 0, 0, 0), (1, 0, 1, 0, 0, 0), (1, -2, 3, -3), (1, 2, 3, 3)]
# and of the corpus orbit machines of 823 and 1,179 states
CORPUS_TO_1179 = CORPUS_GS + [(1, 1, 1, 2, 1), (-1, 1, -1, 2, -1),
                              (1, 1, 0, 1, 0), (-1, 1, 0, 1, 0)]


def random_half_integral(rng, m):
    """A non-companion half-integral matrix with small entries, by rejection.
    Every 1x1 half-integral matrix is its own companion, so m must be >= 2."""
    if m < 2:
        raise ValueError(f"every half-integral matrix of dimension {m} is a companion")
    while True:
        rows = [[Fraction(rng.randint(-3, 3), 2)] + [rng.randint(-2, 2) for _ in range(m - 1)]
                for _ in range(m)]
        if abs(RationalMatrix(rows).det()) == Fraction(1, 2):
            A = HalfIntegralMatrix(rows)
            if A != companion_from_chi(A.chi):
                return A


def conjugate(A, rng):
    """P A P^-1 for a random P = [[1, 0], [0, Q]], Q unimodular: same chi, and
    v -> P v maps c(A, e1) onto c(P A P^-1, e1), as P keeps first coordinates."""
    m = A.dim
    rows = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3 * m):  # add +-row j to row i, both past the first
        i, j = rng.sample(range(1, m), 2)
        sign = rng.choice((-1, 1))
        rows[i] = [x + sign * y for x, y in zip(rows[i], rows[j])]
    P = RationalMatrix(rows)
    return HalfIntegralMatrix(
        (fraction_matrix(P) @ fraction_matrix(A) @ fraction_matrix(P, -1)).tolist()), P


def fraction_matrix(M, power=1):
    """M ** power as a numpy object array of Fractions: the reference for the
    products, sums, powers and inverses that `RationalMatrix` leaves out.

    M is a RationalMatrix, a HalfIntegralMatrix or a sequence of rows; a
    negative power first inverts M by `_inverse_rows`.  A vector v is
    multiplied as `fraction_matrix(M) @ np.array(v, dtype=object)`.
    """
    M = RationalMatrix(getattr(M, "rows", M))
    if power < 0:
        det, rows = M._inverse_rows()
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        M, power = RationalMatrix(rows), -power
    out = np.identity(M.dim, dtype=object)
    for _ in range(power):
        out = out @ np.array(M.rows, dtype=object)
    return out


def faddeev_leverrier(M):
    """det(xI - M) by the Faddeev-LeVerrier recursion, the scheme `char_poly`
    used before it interpolated determinants, kept as its oracle:
    c_(n-k) = -tr(M B_(k-1)) / k and B_k = M B_(k-1) + c_(n-k) I, B_0 = I."""
    A, eye = fraction_matrix(M), fraction_matrix(M, 0)
    n = len(A)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    B = eye
    for k in range(1, n + 1):
        AB = A @ B
        coeffs[n - k] = c = -Fraction(AB.trace()) / k
        B = AB + c * eye
    return Polynomial(coeffs)


# (chi coefficients, the reader's message): every chi reader gives these texts
CHI_ERRORS = [
    ("", "chi needs at least two coefficients"),
    ("1/2", "chi needs at least two coefficients"),
    ("1/2 2", "chi must be written monic (last coefficient 1)"),
    ("1/2 1 0", "chi must be written monic (last coefficient 1)"),
    ("1/2 a 1", "bad coefficient: Invalid literal for Fraction: 'a'"),
    ("1/0 1", "bad coefficient: Fraction(1, 0)"),
]


# -- the text readers before they rejected glued digits and empty entries -----


def reference_parse_int_poly(text):
    """`parse_int_poly` as it read every input before whitespace between two
    digits of the term form was rejected: '3 2x' gave 32x."""
    toks = text.split()
    if toks and all(is_int_literal(t) for t in toks):
        return Polynomial(int(t) for t in toks)
    s = "".join(text.split())
    if not s:
        raise FormatError("empty polynomial")
    if s == "0":
        return Polynomial()
    coeffs = {}
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise FormatError(f"bad polynomial {text!r}")
    for term in terms:
        sign = 1
        body = term
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = re.fullmatch(r"(\d+)?x(?:\^(\d+))?", body)
        if m:
            c = int(m.group(1)) if m.group(1) else 1
            k = int(m.group(2)) if m.group(2) else 1
        elif is_int_literal(body) and body and body[0] != "-":
            c, k = int(body), 0
        else:
            raise FormatError(f"bad polynomial term {term!r} in {text!r}")
        coeffs[k] = coeffs.get(k, 0) + sign * c
    deg = max(coeffs)
    return Polynomial(coeffs.get(i, 0) for i in range(deg + 1))


def reference_parse_vector(text):
    """`parse_vector` as it read every input before empty entries were
    rejected: '(1,,2)' gave (1, 2)."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    parts = s.split(",") if "," in s else s.split()
    try:
        v = tuple(int(p.strip()) for p in parts if p.strip() != "")
    except ValueError:
        raise FormatError(f"bad integer vector {text!r}") from None
    if not v:
        raise FormatError(f"bad integer vector {text!r}")
    return v


def is_int_literal(tok):
    try:
        int(tok)
        return True
    except ValueError:
        return False


# Digits of other scripts ('٣' is a decimal digit, '²' is not), '_' as int()
# reads it, signs, x, ^, separators and two kinds of whitespace.
FUZZ_PIECES = tuple("0123456789_²٣+-x^,() \t") + (
    "x", "x^2", "2x", " 2", "1 ", "12", " + ", " - ", ", ", "(1,", ",,")


def fuzz_texts(seed, count):
    """count short strings of FUZZ_PIECES.  A string whose exponent would have
    five or more digits is drawn again: it only builds a long polynomial."""
    rng = random.Random(seed)
    texts = []
    while len(texts) < count:
        text = "".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(0, 7)))
        if not re.search(r"\^[\d_]{5}", "".join(text.split())):
            texts.append(text)
    return texts


def cycle_solution_by_powers(A, sigmas):
    """Oracle for the cycle equation `locate` solves in Q[x]/chi*.

    A cycle through e1 with signs sigma_0..sigma_(L-1) forces
    sum sigma_i A^(L-i) e = (I - A^L) e1.  This solves that system over
    Fraction matrix powers of A itself and returns e, or None when the left
    side is singular.
    """
    if not any(sigmas):
        return None
    L, M = len(sigmas), fraction_matrix(A)
    powers = [fraction_matrix(A, 0)]
    for _ in range(L):
        powers.append(M @ powers[-1])
    lhs = sum(sig * powers[L - i] for i, sig in enumerate(sigmas) if sig)
    rhs = (powers[0] - powers[L]) @ np.array(unit_vector(A.dim), dtype=object)
    return RationalMatrix(lhs.tolist()).solve_unique(tuple(rhs))


# -- the unit-term residuation fold ------------------------------------------
#
# The fold as it was written before the library compiled it: combinations are
# maps from state labels to coefficients, expanded into signed unit terms and
# folded one term at a time.  The compiled fold must agree with it exactly.


@dataclass(frozen=True)
class GenInfo:
    odd: bool
    res0: tuple[tuple[str, int], ...]
    res1: tuple[tuple[str, int], ...]


def oracle_gen_table(aut):
    """label -> GenInfo for the states of an invertible machine."""
    return {
        s: GenInfo(aut._odd(s), ((aut.residual(s, 0), 1),), ((aut.residual(s, 1), 1),))
        for s in aut.states
    }


def oracle_principal_gens(aut, gamma):
    """The machine's generators plus the fresh delta: d0(delta) = I and
    d1(delta) = gamma.  Returns (delta label, gens)."""
    gens = oracle_gen_table(aut)
    label = "delta"
    while label in gens:
        label += "_"
    gens[label] = GenInfo(True, (), tuple(sorted(gamma.items())))
    return label, gens


def oracle_parity(gens, coeffs) -> bool:
    p = 0
    for s, c in coeffs.items():
        if gens[s].odd:
            p ^= c & 1
    return bool(p)


def expand_terms(coeffs):
    """Signed unit terms in lexicographic state order."""
    for s in sorted(coeffs):
        c = coeffs[s]
        sign = 1 if c > 0 else -1
        for _ in range(abs(c)):
            yield s, sign


def fold_terms(gens, terms, bit):
    """Left fold of the four residuation rules over signed unit terms.

    Tracks the parity of the accumulated partial sum; the bit handed to each
    new term is flipped exactly when that parity and the term are both odd.
    """
    acc = {}
    acc_odd = False
    for label, sign in terms:
        info = gens[label]
        b = bit ^ 1 if (acc_odd and info.odd) else bit
        if sign > 0:
            src = info.res0 if b == 0 else info.res1
            mult = 1
        else:
            # d0(-f) = -d1 f and d1(-f) = -d0 f
            src = info.res1 if b == 0 else info.res0
            mult = -1
        for s2, c2 in src:
            new = acc.get(s2, 0) + mult * c2
            if new:
                acc[s2] = new
            else:
                acc.pop(s2, None)
        acc_odd ^= info.odd
    return acc


def oracle_residuate(gens, coeffs, bit):
    return fold_terms(gens, expand_terms(coeffs), bit)


def oracle_identity_test(gens, coeffs, bound=DEFAULT_BOUND):
    """Breadth-first residuation closure over coefficient maps."""
    if oracle_parity(gens, coeffs):
        return IdentityResult(Verdict.NOT_IDENTITY, "")
    visited = {tuple(sorted(coeffs.items()))}
    queue = deque([(coeffs, "")])
    while queue:
        cur, path = queue.popleft()
        for bit in (0, 1):
            child = oracle_residuate(gens, cur, bit)
            if oracle_parity(gens, child):
                return IdentityResult(Verdict.NOT_IDENTITY, path + str(bit))
            k = tuple(sorted(child.items()))
            if k not in visited:
                if len(visited) >= bound:
                    return IdentityResult(Verdict.UNKNOWN)
                visited.add(k)
                queue.append((child, path + str(bit)))
    return IdentityResult(Verdict.IS_IDENTITY)


def oracle_check_abelian(aut, bound=DEFAULT_BOUND):
    """The abelianness criterion over coefficient maps and the unit-term
    fold: each even state, each odd state against the least one, gamma."""
    gens = oracle_gen_table(aut)
    odd = [s for s in aut.states if gens[s].odd]
    if not odd:
        return AbelianReport(AbelianVerdict.TRIVIAL_GROUP)

    def diff(s):
        d = {aut.residual(s, 1): 1}
        d[aut.residual(s, 0)] = d.get(aut.residual(s, 0), 0) - 1
        return {t: c for t, c in d.items() if c}

    unknown = False
    for s in aut.states:
        if s not in odd:
            res = oracle_identity_test(gens, diff(s), bound)
            if res.verdict is Verdict.NOT_IDENTITY:
                why = (f"d1({s}) - d0({s}) = {format_combination(diff(s))} is not the "
                       f"identity (odd element along path {res.witness_path!r})")
                return AbelianReport(AbelianVerdict.NOT_ABELIAN, witness=(s, why))
            unknown |= res.verdict is Verdict.UNKNOWN
    gamma = diff(odd[0])
    for g in odd[1:]:
        d = dict(gamma)
        for t, c in diff(g).items():
            d[t] = d.get(t, 0) - c
        d = {t: c for t, c in d.items() if c}
        res = oracle_identity_test(gens, d, bound)
        if res.verdict is Verdict.NOT_IDENTITY:
            why = (f"odd states {odd[0]} and {g} have different residual differences "
                   f"({format_combination(d)} is odd along path {res.witness_path!r})")
            return AbelianReport(AbelianVerdict.NOT_ABELIAN, witness=(odd[0], why))
        unknown |= res.verdict is Verdict.UNKNOWN
    res = oracle_identity_test(gens, gamma, bound)
    if unknown or res.verdict is Verdict.UNKNOWN:
        return AbelianReport(AbelianVerdict.UNKNOWN)
    verdict = (AbelianVerdict.BOOLEAN_CANDIDATE if res.verdict is Verdict.IS_IDENTITY
               else AbelianVerdict.ABELIAN_FREE_CANDIDATE)
    return AbelianReport(verdict, gamma=GroupElement(aut, gamma))


# -- locate before it fitted first -------------------------------------------
#
# `locate` as it was written before it fitted first and classified only on a
# misfit, kept as a differential oracle: both must return the same map or
# raise the same error class.


def self_reachable(aut, s):
    seen = set()
    queue = deque(aut.residual(s, b) for b in (0, 1))
    while queue:
        t = queue.popleft()
        if t == s:
            return True
        if t in seen:
            continue
        seen.add(t)
        queue.extend(aut.residual(t, b) for b in (0, 1))
    return False


def cycle_words(aut, anchor, max_len):
    """Words that walk anchor back to itself, by (length, lexicographic) order."""
    back = {s: [] for s in aut.states}
    for s in aut.states:
        for b in (0, 1):
            back[aut.residual(s, b)].append(s)
    dist = {anchor: 0}
    queue = deque([anchor])
    while queue:
        t = queue.popleft()
        for s in back[t]:
            if s not in dist:
                dist[s] = dist[t] + 1
                queue.append(s)

    def walk(state, remaining, word):
        if remaining == 0:
            if state == anchor:
                yield "".join(word)
            return
        for b in (0, 1):
            t = aut.residual(state, b)
            if dist.get(t, max_len + 1) <= remaining - 1:
                word.append(str(b))
                yield from walk(t, remaining - 1, word)
                word.pop()

    for length in range(1, max_len + 1):
        yield from walk(anchor, length, [])


@functools.lru_cache(maxsize=32)
def closure_gate(aut, bound=DEFAULT_BOUND):
    """The abelian-free gate that `locate` and `infer_matrix` took before a
    validated fit decided it: `check_abelian`'s closures alone.  Returns the
    AbelianFreeCandidate report; raises BoundExceededError for Unknown and
    NotAbelianError for any other verdict.  Cached as that gate was: the
    oracles try one machine in several matrices, and o61 costs 2 s."""
    report = abmealy.group.check_abelian(aut, bound)
    if report.verdict is AbelianVerdict.UNKNOWN:
        raise BoundExceededError(
            f"abelian check of automaton {aut.name!r} reached an identity-test "
            f"closure of {bound + 1} elements, over the bound {bound}; raise the bound"
        )
    if report.verdict is not AbelianVerdict.ABELIAN_FREE_CANDIDATE:
        detail = f": {report.witness[1]}" if report.witness else ""
        raise NotAbelianError(
            f"automaton {aut.name!r} classified {report.verdict}{detail}; "
            "need AbelianFreeCandidate"
        )
    return report


def closure_locate(aut, A, *, bound=DEFAULT_BOUND):
    """`locate` with `closure_gate` on a misfit, as it was before `classify`
    decided the misfit."""
    if not isinstance(A, HalfIntegralMatrix):
        A = HalfIntegralMatrix(A)
    _require_contracting(A)
    try:
        return _fit(aut, A, _anchor_cycle(aut))
    except (LocateError, MatrixError):
        closure_gate(aut, bound)
        raise


def closure_infer_matrix(aut, *, max_dim=None, bound=DEFAULT_BOUND):
    """`infer_matrix` with `closure_gate` wherever the constructed matrix
    does not place the machine, as it was before `classify` decided it."""
    try:
        A, frame = _construct(aut)
        if max_dim is None or A.dim <= max_dim:
            return InferResult(matrix=A, chi=A.chi, location=_fit(aut, A, frame))
    except (LocateError, MatrixError):
        pass
    closure_gate(aut, bound)
    return None


CYCLE_LIMIT = 64  # cycle words that may fail to determine e before locate gives up


def reference_locate(aut, A, *, bound=DEFAULT_BOUND):
    """`locate` as it was before it fitted first: the abelian gate up front,
    up to CYCLE_LIMIT cycle words, and a parity, output and target check
    inline in the propagation."""
    if not isinstance(A, HalfIntegralMatrix):
        A = HalfIntegralMatrix(A)
    _require_contracting(A)
    closure_gate(aut, bound)

    parity = {s: aut.state_parity(s) for s in aut.states}
    anchor = next(
        (s for s in aut.states
         if parity[s] is Parity.ODD and self_reachable(aut, s)),
        None,
    )
    if anchor is None:
        raise LocateError("no odd state lies on a cycle")

    e1 = unit_vector(A.dim)
    inv = A.inv_rows
    q = None
    max_len = 2 * len(aut.states) + 2
    for tried, word in enumerate(cycle_words(aut, anchor, max_len), start=1):
        sigmas, state = [], anchor
        for ch in word:
            sigmas.append(_sigma(parity[state], int(ch)))
            state = aut.residual(state, int(ch))
        q = _cycle_quotient(A, sigmas)
        if q is not None or tried >= CYCLE_LIMIT:
            break
    if q is None:
        raise LocateError(
            f"no cycle through {anchor} determines a translation vector "
            f"(tried words up to length {max_len})"
        )
    sol = _horner(q.coeffs, e1, inv)
    if any(x.denominator != 1 for x in sol) or sol[0] % 2 == 0:
        raise LocateError(
            f"cycle {word!r} at {anchor} forces translation vector "
            f"({', '.join(str(x) for x in sol)}), which is not an odd "
            "integer vector; the matrix does not fit"
        )
    e = tuple(map(int, sol))

    config = CompleteConfig(A, e)
    assignment = {anchor: e1}
    queue = deque([anchor])
    back = {s: [] for s in aut.states}
    for s in aut.states:
        for b in (0, 1):
            back[aut.residual(s, b)].append((s, b))
    while queue:
        s = queue.popleft()
        v = assignment[s]
        if (v[0] % 2 == 1) != (parity[s] is Parity.ODD):
            raise LocateError(
                f"state {s} has parity {parity[s]} but was forced to vector "
                f"{format_vector(v)}; the matrix does not fit"
            )
        for bit in (0, 1):
            t, out = aut.step(s, bit)
            w, wout = _step(config, v, bit)
            if wout != out:
                raise LocateError(
                    f"state {s} on input {bit} outputs {out}, but its vector "
                    f"{format_vector(v)} outputs {wout}"
                )
            if t in assignment:
                if assignment[t] != w:
                    raise LocateError(
                        f"state {t} is forced to both "
                        f"{format_vector(assignment[t])} and {format_vector(w)}; "
                        "the matrix does not fit"
                    )
            else:
                assignment[t] = w
                queue.append(t)
        for u, bit in back[s]:
            if u in assignment:
                continue
            w = _apply_int(inv, v)
            sig = _sigma(parity[u], bit)
            if sig:
                w = tuple(map(sub, w, (sig * c for c in e)))
            assignment[u] = w
            queue.append(u)
    missing = sorted(set(aut.states) - set(assignment))
    if missing:
        raise LocateError(
            f"states not connected to {anchor}: {', '.join(missing)}"
        )

    return LocationMap(p=_integral_name(q, e), e=e, assignment=assignment)


def transduction_agrees(aut, A, locmap, max_len=8):
    """Brute-force oracle for a location map: whether every state and its
    vector print the same output word on every input word up to max_len,
    the machine stepped by its table and c(A, e) by its definition,
    v -> A (v -+ e), over the rows of 2A.  It shares no code with `locate`,
    `LocationMap.validate` or `find_location_mismatch`.  A (state, vector,
    words left) triple met twice is checked once: it asks the same question.
    """
    # 2A is integral, and 2A w is even when w has an even first coordinate
    rows2 = [tuple(int(2 * x) for x in row) for row in A.rows]
    e = locmap.e
    todo = [(s, tuple(locmap.assignment[s]), max_len) for s in aut.states]
    seen = set()
    while todo:
        s, v, left = todo.pop()
        if left == 0 or (s, v, left) in seen:
            continue
        seen.add((s, v, left))
        for bit in (0, 1):
            t, out = aut.step(s, bit)
            if v[0] % 2 == 0:
                w, vout = v, bit
            else:
                w, vout = tuple(x + (2 * bit - 1) * y for x, y in zip(v, e)), 1 - bit
            if out != vout:
                return False
            todo.append((t, tuple(sum(a * x for a, x in zip(row, w)) // 2 for row in rows2),
                         left - 1))
    return True


_box_contracting = functools.cache(is_contracting)
_box_companion = functools.cache(companion_from_chi)


def box_infer_matrix(aut, *, max_dim=3, coeff_bound=2, bound=DEFAULT_BOUND):
    """The candidate box that `infer_matrix` replaced, kept as its oracle.

    Enumerates characteristic polynomials x^m + g(x)/2 with g(0) = -1 or 1
    and the remaining coefficients of g ranging over [-coeff_bound,
    coeff_bound] in lexicographic order, keeps the contracting ones, and
    accepts the first whose companion matrix locates the machine; the
    machine is classified once, when the space is exhausted, and None is
    returned.  BoundExceededError, before any search, when the box holds
    more than `bound` polynomials.  Every machine tries the same candidates,
    so their contraction test and companion matrix are computed once.
    """
    width = max(2 * coeff_bound + 1, 0)
    total = 0
    for m in range(1, max_dim + 1):
        total += 2 * width ** (m - 1)
        if total > bound:
            raise BoundExceededError(
                f"infer candidate box reached {total} candidate polynomials "
                f"by dimension {m}, over the bound {bound}; lower the "
                "dimension or the coefficient bound"
            )
    for m in range(1, max_dim + 1):
        for g0 in (-1, 1):
            for rest in product(range(-coeff_bound, coeff_bound + 1), repeat=m - 1):
                chi = Polynomial([Fraction(c, 2) for c in (g0,) + rest] + [Fraction(1)])
                if not _box_contracting(chi):
                    continue
                A = _box_companion(chi)
                try:
                    locmap = _fit(aut, A, _anchor_cycle(aut))
                except (LocateError, MatrixError):
                    continue
                return InferResult(matrix=A, chi=chi, location=locmap)
    closure_gate(aut, bound)
    return None


def random_machine(rng, n):
    """An invertible machine of n states, each odd or even at random, with
    random targets."""
    states = [f"s{i}" for i in range(n)]
    trans = {}
    for s in states:
        flip = rng.random() < 0.5
        for b in (0, 1):
            trans[(s, b)] = (rng.choice(states), b ^ flip)
    return MealyAutomaton(trans, name="random")


_locate = abmealy.complete.locate


@functools.wraps(_locate)
def checked_locate(aut, A, **kwargs):
    """`locate`, checking that p names e: p(A^-1) e1 == e.

    Bound in place of `locate` in every module that exposes it, before any
    test module imports it, so every locate the suite runs is checked.
    """
    locmap = _locate(aut, A, **kwargs)
    A = A if isinstance(A, HalfIntegralMatrix) else HalfIntegralMatrix(A)
    assert poly_to_vector(locmap.p, A) == locmap.e
    checked_locate.checked += 1
    return locmap


checked_locate.checked = 0
for _module in (abmealy, abmealy.complete, abmealy.analysis, abmealy.cli):
    _module.locate = checked_locate
