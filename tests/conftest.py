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
from itertools import combinations, product
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
    _fit,
    _horner,
    _require_contracting,
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
from abmealy.exactalg import (
    Polynomial,
    _mul_matrix_mod,
    companion_from_chi,
    is_contracting,
    reduce_mod,
)
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

# The binary odometer: a adds one to the word read least significant bit
# first, and e copies.  infer gives chi = x - 1/2.
ODOMETER_TEXT = """\
aut odometer
states a e
trans a 0 1 e
trans a 1 0 a
copy e e
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
    machines.  It shares the step of c(A, e) and the module action with
    `locate`, but not its fit or its spread, nor the transition check of
    `LocationMap.validate`, which decide the same question exactly,
    transition by transition.
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


def sigma(parity, bit):
    """The sign of a transition in locate's cycle equation: -1 and +1 on
    inputs 0 and 1 at an odd state, 0 at an even one."""
    if parity is not Parity.ODD:
        return 0
    return -1 if bit == 0 else 1


def unit_config(g):
    """c(A, e1) for A the companion matrix of x^m + g(x)/2."""
    chi = Polynomial([Fraction(c, 2) for c in g] + [Fraction(1)])
    return CompleteConfig(companion_from_chi(chi), unit_vector(len(g)))


def reference_walk(config, starts, bound=DEFAULT_BOUND):
    """`complete._walk` by a plain breadth-first walk on `_step`, input 0 then 1
    at every vector: (order, succ), or the walk's BoundExceededError on
    discovering the (bound + 1)-th vector."""
    _require_contracting(config.A)
    order = list(dict.fromkeys(starts))
    index, succ = {v: i for i, v in enumerate(order)}, []
    for v in order:  # grows while it is read
        for bit in (0, 1):
            w = _step(config, v, bit)[0]
            if w not in index:
                index[w] = len(order)
                order.append(w)
                if len(order) > bound:
                    raise BoundExceededError(
                        f"orbit reached {len(order)} vectors, over the bound {bound}; "
                        "raise the bound or check that the matrix is contracting")
            succ.append(index[w])
    return order, succ


def reference_table(config, starts):
    """`orbit_automaton`'s table as a list, in its order: `reference_walk`'s
    vectors through `vector_label`, with `_step`'s outputs."""
    order, succ = reference_walk(config, starts)
    label = ["_".join(map(str, v)) for v in order]
    return [((label[i], bit), (label[succ[2 * i + bit]], _step(config, v, bit)[1]))
            for i, v in enumerate(order) for bit in (0, 1)]


def reference_scc_decompose(graph):
    """Tarjan's algorithm, iteratively, on the nodes themselves, as a dict-keyed
    reference for `analysis.scc_decompose`: the components, each sorted, ordered
    by least member; successors must be re-iterable, as the edge pass reads them
    again."""
    done = len(graph)  # above every visit number, so a closed node lowers no low-link
    index, low, stack, raw, work = {}, [], [], [], []

    def enter(node):
        index[node] = k = len(low)
        low.append(k)
        stack.append(node)
        work.append((node, k, iter(graph[node])))

    for root in graph:
        if root in index:
            continue
        enter(root)
        while work:
            node, k, targets = work[-1]
            for t in targets:
                j = index.get(t)
                if j is None:
                    if t not in graph:
                        raise ValueError(f"successor {t!r} is not a node of the graph")
                    enter(t)
                    break
                low[k] = min(low[k], j)
            else:
                work.pop()
                if low[k] == k:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                        if w == node:
                            break
                    raw.append(tuple(sorted(comp)))
                if work:
                    parent = work[-1][1]
                    low[parent] = min(low[parent], low[k])
    components = tuple(sorted(raw, key=lambda c: c[0]))
    component_of = {node: i for i, comp in enumerate(components) for node in comp}
    edges, cyclic = set(), [len(c) > 1 for c in components]
    for node, targets in graph.items():
        i = component_of[node]
        for t in targets:
            j = component_of[t]
            if i == j:
                cyclic[i] = True
            else:
                edges.add((i, j))
    return abmealy.analysis.SccDecomposition(
        components=components, edges=frozenset(edges), cyclic=tuple(cyclic))


def reference_scc_instance(A, bound=DEFAULT_BOUND):
    """`analysis.check_scc_instance` on vector tuples: `reference_walk` from e1
    and, where -e1 is not reached, from -e1 too, each within bound; the graph
    of both successors of every vector by `reference_scc_decompose`; the
    witness read back through `list.index`."""
    if not isinstance(A, HalfIntegralMatrix):
        A = HalfIntegralMatrix(A)
    e1 = unit_vector(A.dim)
    neg = tuple(-c for c in e1)
    config, graph, witness = CompleteConfig(A, e1), {}, None
    for start in (e1, neg):
        if start not in graph:
            order, succ = reference_walk(config, [start], bound)
            graph.update((v, (order[succ[2 * i]], order[succ[2 * i + 1]]))
                         for i, v in enumerate(order))
            if start == e1 and neg in graph:
                letters, j = [], order.index(neg)
                while j:  # succ's first entry naming j is the step that discovered it
                    j = (p := succ.index(j)) >> 1
                    letters.append("n1"[p & 1] if order[j][0] & 1 else "0")
                witness = abmealy.analysis.path_polynomial("".join(letters))
    dec = reference_scc_decompose(graph)
    zero = (0,) * A.dim
    nontrivial = tuple(i for i, comp in enumerate(dec.components) if zero not in comp)
    return abmealy.analysis.SccInstanceReport(
        chi=A.chi, chi_star=A.chi_star, states=tuple(sorted(graph)), decomposition=dec,
        nontrivial_components=nontrivial, single_nontrivial=len(nontrivial) == 1,
        witness=witness)


# chi of the 14 corpus orbit machines of 7 to 61 states
CORPUS_GS = [(1, 2), (1, -2), (1, 1, 1, 1), (1, -1, 1, -1), (1, 0, -2), (-1, 0, 2),
             (1, 0, 1, -1), (1, 0, 1, 1), (1, 0, -1, -1), (1, 0, -1, 1),
             (-1, 0, 1, 0, 0, 0), (1, 0, 1, 0, 0, 0), (1, -2, 3, -3), (1, 2, 3, 3)]
# and of the corpus orbit machines of 823 and 1,179 states
CORPUS_TO_1179 = CORPUS_GS + [(1, 1, 1, 2, 1), (-1, 1, -1, 2, -1),
                              (1, 1, 0, 1, 0), (-1, 1, 0, 1, 0)]
# and of both chi of every corpus size class o7-o55275
CORPUS_GS_ALL = CORPUS_TO_1179 + [(1, -1, 0, 1, 0, 0), (1, 1, 0, -1, 0, 0),
                                  (-1, 0, 1, 0, 0, -1), (-1, 0, 1, 0, 0, 1)]


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


def cycle_quotient(A, sigmas):
    """q = (x^L - 1) / s in Q[x]/chi*, s = sum sigma_i x^i, L = len(sigmas);
    None when s is a zero divisor there (s(A^-1) is singular).  The rational
    division that `locate` once read e off, kept as a reference for its
    integral one."""
    star = A.chi_star
    target = reduce_mod(Polynomial((-1,) + (0,) * (len(sigmas) - 1) + (1,)), star).coeffs
    sol = _mul_matrix_mod(Polynomial(sigmas), star).solve_unique(
        target + (0,) * (star.degree - len(target)))
    return None if sol is None else Polynomial(sol)


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
        s: GenInfo(aut.output(s, 0) == 1, ((aut.residual(s, 0), 1),),
                   ((aut.residual(s, 1), 1),))
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


def oracle_equal_pairs(succ, out):
    """The pairs (a, b), a < b, of states of an index table that are equal
    functions on words, by one breadth-first search over pairs of states per
    pair: a and b are equal iff every pair reached from (a, b) on a common
    input word has equal outputs.  The pairs a search reaches from an equal
    pair are equal too, so they are not searched again."""
    equal, outs = set(), list(zip(out[0::2], out[1::2]))
    for a, b in combinations(range(len(outs)), 2):
        if (a, b) in equal:
            continue
        seen, queue = {(a, b)}, deque([(a, b)])
        while queue:
            x, y = queue.popleft()
            if outs[x] != outs[y]:
                break
            for bit in (0, 1):
                nxt = (succ[2 * x + bit], succ[2 * y + bit])
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        else:
            equal |= {(min(p), max(p)) for p in seen if p[0] != p[1]}
    return equal


def oracle_is_boolean(aut):
    """Every state's two successors are equal functions, by the pair search."""
    equal = oracle_equal_pairs(aut._succ, aut._out)
    return all(s0 == s1 or (min(s0, s1), max(s0, s1)) in equal
               for s0, s1 in zip(aut._succ[0::2], aut._succ[1::2]))


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
        A, frame = _construct(aut), _anchor_cycle(aut)
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
            sigmas.append(sigma(parity[state], int(ch)))
            state = aut.residual(state, int(ch))
        q = cycle_quotient(A, sigmas)
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
            sig = sigma(parity[u], bit)
            if sig:
                w = tuple(map(sub, w, (sig * c for c in e)))
            assignment[u] = w
            queue.append(u)
    missing = sorted(set(aut.states) - set(assignment))
    if missing:
        raise LocateError(
            f"states not connected to {anchor}: {', '.join(missing)}"
        )

    if not q.is_integral():
        raise MatrixError(f"vector {format_vector(e)} is not an integer polynomial multiple "
                          "of e1")
    return LocationMap(p=q, e=e, assignment=assignment)


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


class DictMachine:
    """A machine as a plain dict keyed by (label, bit), with no checks: the
    oracle of `MealyAutomaton`'s index table.  It stores bits as ints and
    sorts its states."""

    def __init__(self, table, name="machine", states=None):
        self.delta = {(s, int(a)): (d, int(o)) for (s, a), (d, o) in dict(table).items()}
        self.name = name
        self.states = tuple(sorted({s for s, _ in self.delta} if states is None else states))

    def step(self, state, bit):
        return self.delta[state, bit]

    def transduce(self, state, word):
        out = []
        for ch in word:
            state, b = self.delta[state, int(ch)]
            out.append(str(b))
        return "".join(out)

    def is_invertible(self):
        return all(self.delta[s, 0][1] != self.delta[s, 1][1] for s in self.states)

    def state_parity(self, state):
        return Parity.ODD if self.delta[state, 0][1] else Parity.EVEN

    @property
    def transitions(self):
        return {(s, b): self.delta[s, b] for s in self.states for b in (0, 1)}

    def serialize(self):
        lines = [f"aut {self.name}", "states " + " ".join(self.states)]
        lines += [f"trans {s} {b} {self.delta[s, b][1]} {self.delta[s, b][0]}"
                  for s in self.states for b in (0, 1)]
        return "\n".join(lines) + "\n"

    def value(self):
        """What equality compares: the name, the states and the table."""
        return self.name, self.states, sorted(self.delta.items())


def random_table(rng, n):
    """A table of n states with labels drawn from several shapes, self-loops
    about one target in three, and odd, even and non-invertible states; some
    bits are True, False, 1.0 or 0.0 in place of the ints."""
    pool = ["q0", "q1", "a", "A", "_", "+", "-", "-1_2", "-10_-10_-1", "0_0", "s+t", "Z9"]
    labels = rng.sample(pool, n)
    kinds = (int, int, bool, float)
    table = {}
    for s in labels:
        shape = rng.choice(("odd", "even", "any"))
        for b in (0, 1):
            out = b ^ (shape == "odd") if shape != "any" else rng.randint(0, 1)
            dst = s if rng.random() < 1 / 3 else rng.choice(labels)
            table[s, rng.choice(kinds)(b)] = (dst, rng.choice(kinds)(out))
    return table


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


_LABEL_RE = re.compile(r"[A-Za-z0-9_+-]+\Z")
# an AUT text in `serialize`'s form: header, states, then trans lines only
_SERIAL_RE = re.compile(r"aut ([A-Za-z0-9_+-]+)\nstates((?: [A-Za-z0-9_+-]+)+)\n"
                        r"((?:trans [A-Za-z0-9_+-]+ [01] [01] [A-Za-z0-9_+-]+\n)*)")
_BIT = {"0": 0, "1": 1}.__getitem__


def reference_parse(text):
    """The AUT reader that `MealyAutomaton.parse` replaced, kept as its oracle.

    Two paths: a text in `serialize`'s form is read from one regex match and
    the token columns of one split into the index table; any other text, or
    one whose table does not fit, goes to a line loop that fills a dict
    table, names the first fault and ends in the dict constructor.
    """
    m = _SERIAL_RE.fullmatch(text if text.endswith("\n") else text + "\n")
    if m:
        states = sorted(m[2].split())
        index, toks = {s: i for i, s in enumerate(states)}, m[3].split()
        try:
            at = [2 * i + b for i, b in zip(map(index.__getitem__, toks[1::5]),
                                             map(_BIT, toks[2::5]))]
            dst = list(map(index.__getitem__, toks[4::5]))
        except KeyError:
            at = []
        if len(at) == 2 * len(states):
            succ, out = [-1] * len(at), [-1] * len(at)
            for j, t, o in zip(at, dst, map(_BIT, toks[3::5])):
                succ[j], out[j] = t, o
            aut = MealyAutomaton._indexed(m[1], states, index, succ, out)
            if aut is not None:
                return aut
    name = None
    states = None
    delta = {}

    def fail(msg, n):
        raise FormatError(msg, line=n)

    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        if name is None:
            if kind != "aut" or len(toks) != 2:
                fail("expected 'aut <name>' header", n)
            name = toks[1]
            if not _LABEL_RE.match(name):
                fail(f"bad automaton name {name!r}", n)
            continue
        if states is None:
            if kind != "states" or len(toks) < 2:
                fail("expected 'states <label> ...' after header", n)
            states = toks[1:]
            stateset = set(states)
            if len(stateset) != len(states):
                fail("duplicate state label", n)
            for s in states:
                if not _LABEL_RE.match(s):
                    fail(f"bad state label {s!r}", n)
            continue
        if kind == "trans":
            if len(toks) != 5:
                fail("expected 'trans <src> <in> <out> <dst>'", n)
            _, src, a, out, dst = toks
            if a not in ("0", "1") or out not in ("0", "1"):
                fail("bits must be 0 or 1", n)
            pairs = ((int(a), int(out)),)
        elif kind == "copy":
            if len(toks) != 3:
                fail("expected 'copy <src> <dst>'", n)
            _, src, dst = toks
            pairs = ((0, 0), (1, 1))
        else:
            fail(f"unknown directive {kind!r}", n)
        if src not in stateset:
            fail(f"unknown source state {src!r}", n)
        if dst not in stateset:
            fail(f"unknown target state {dst!r}", n)
        for a, out in pairs:
            if (src, a) in delta:
                fail(f"duplicate transition for state {src!r} on input {a}", n)
            delta[src, a] = (dst, out)

    if name is None:
        raise FormatError("empty input: missing 'aut <name>' header")
    if states is None:
        raise FormatError("missing 'states' line")
    for s in states:
        for a in (0, 1):
            if (s, a) not in delta:
                raise FormatError(f"state {s!r} has no transition on input {a}")
    return MealyAutomaton(delta, name=name, states=states)


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
