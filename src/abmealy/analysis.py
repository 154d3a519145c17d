"""Reachability structure of complete automata and experiment drivers.

Four instruments sit on top of the core machinery:

* strongly connected component decomposition of any finite successor graph,
  used to inspect how the orbit of the unit vector and its negation split;
* path polynomials and the search for a monic witness polynomial with
  coefficients in {-1, 0, 1} that is congruent to -1 modulo chi*, which is
  the algebraic shadow of a path carrying the unit vector to its negation;
* the construction of the matrix that fits a given abelian machine: chi* is
  the gcd of the relations that the machine's transitions impose, and one
  `locate` checks its companion matrix;
* the abelianness decision behind `check`: a validated fit of that matrix
  certifies AbelianFreeCandidate, so `group`'s residuation closures run only
  on the even states and on machines that no matrix fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complete import (
    CompleteConfig,
    LocationMap,
    _anchor_cycle,
    _sigma,
    _spread,
    _walk,
    locate,
    unit_vector,
)
from .errors import BoundExceededError, FormatError, LocateError, MatrixError
from .exactalg import (
    HalfIntegralMatrix,
    Polynomial,
    _check_modulus,
    _poly_divmod,
    companion_from_chi,
)
from .group import (
    DEFAULT_BOUND,
    AbelianReport,
    AbelianVerdict,
    _even_tests,
    _odd_table,
    _odd_tests,
    _require_abelian_free,
    gamma_of,
)
from .mealy import MealyAutomaton

# -- strongly connected components ---------------------------------------------


@dataclass(frozen=True)
class SccDecomposition:
    """Components of a finite directed graph, each sorted internally.

    The component list is ordered by least member.  `edges` holds the pairs
    of distinct component indices connected by at least one edge, and
    `cyclic[i]` says whether component i contains a cycle (more than one
    node, or a self-loop).
    """

    components: tuple[tuple, ...]
    component_of: dict
    edges: frozenset
    cyclic: tuple[bool, ...]

    @property
    def terminal_indices(self) -> tuple[int, ...]:
        out = set()
        for i, _ in self.edges:
            out.add(i)
        return tuple(
            i for i in range(len(self.components)) if i not in out
        )


def scc_decompose(graph: dict) -> SccDecomposition:
    """Tarjan's algorithm, iteratively, over a node -> successors mapping whose
    successors are re-iterable collections: the edge pass walks them again."""
    # index[node] is the node's visit number until its component is closed,
    # then `done`, which is above every visit number and so lowers no low-link.
    done = len(graph)
    index: dict = {}
    low: list[int] = []
    stack: list = []
    raw_components: list[tuple] = []
    work: list = []  # (node, its visit number, iterator over its successors)

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
                    # never indexed, so met here: every node is a root and
                    # scans all its successors
                    if t not in graph:
                        raise ValueError(f"successor {t!r} is not a node of the graph")
                    enter(t)
                    break
                low[k] = min(low[k], j)
            else:  # every successor is visited, so node is finished
                work.pop()
                if low[k] == k:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                        if w == node:
                            break
                    raw_components.append(tuple(sorted(comp)))
                if work:
                    parent = work[-1][1]
                    low[parent] = min(low[parent], low[k])
    del index, low  # free the bookkeeping before the maps below are built
    components = tuple(sorted(raw_components, key=lambda c: c[0]))
    component_of = {}
    for i, comp in enumerate(components):
        for node in comp:
            component_of[node] = i
    edges = set()
    cyclic = [len(c) > 1 for c in components]
    for node, targets in graph.items():
        i = component_of[node]
        for t in targets:
            j = component_of[t]
            if i == j:
                cyclic[i] = True
            else:
                edges.add((i, j))
    return SccDecomposition(
        components=components,
        component_of=component_of,
        edges=frozenset(edges),
        cyclic=tuple(cyclic),
    )


# -- path polynomials and witnesses -----------------------------------------------

PATH_ALPHABET = {"0": 0, "1": 1, "n": -1}  # letter -> the coefficient it adds


def path_polynomial(word: str) -> Polynomial:
    """Fold a word over 0/1/n into its path polynomial.

    Starting from 1, each letter multiplies by x and then adds 0, +1, or -1
    ('n' is the subtracting letter).  The result records, coefficient by
    coefficient, how a walk in a complete automaton displaces its vector.
    """
    for ch in word:
        if ch not in PATH_ALPHABET:
            raise FormatError(f"path letter must be one of '0', '1', 'n'; got {ch!r}")
    return Polynomial([PATH_ALPHABET[ch] for ch in reversed(word)] + [1])


def witness_search(chi_star_poly, max_degree: int = 12) -> Polynomial | None:
    """Least monic polynomial with coefficients in {-1,0,1} congruent to -1.

    w = c_0 + ... + x^d is a witness when chi* divides w + 1.  Dividing w + 1
    by chi* from the constant term up leaves a carry of degree < deg chi*,
    first 1: c_k is allowed when q = (carry(0) + c_k) / chi*(0) is an
    integer, the next carry is (carry + c_k - q chi*) / x, and w is a witness
    when its d lower coefficients end at the carry -1.  The search walks the
    carries breadth first, each kept once with one parent link, layers in
    discovery order and digits -1, 0, 1, so the first -1 found spells the
    least witness by (degree, lexicographic order from c_0).  It costs the
    reachable carries times deg chi*; |chi*(0)| = 2, as for every
    half-integral matrix, allows two digits a step.  If chi* = x^s h with
    h(0) != 0, w starts -1, 0, ..., 0 (s digits) and the carries, from 0,
    run modulo h.

    Returns None when no witness of degree <= max_degree exists modulo
    chi*, as soon as a layer leaves no new carry.  Raises
    BoundExceededError past DEFAULT_BOUND carries, which at degree 12 only
    h(0) = +-1 can reach.
    """
    coeffs = _check_modulus(chi_star_poly).coeffs
    s = next(i for i, c in enumerate(coeffs) if c)
    forced = (-1,) + (0,) * (s - 1) if s else ()
    h = coeffs[s:]
    if len(h) == 1:  # chi* = x^s, so w = -1 + x^s
        return Polynomial(forced + (1,)) if s <= max_degree else None
    h0, mid = h[0], h[1:-1]
    m = len(h) - 1
    start = (0 if s else 1,) + (0,) * (m - 1)
    target = (-1,) + (0,) * (m - 1)
    parent = {start: None}
    layer = [start]
    for degree in range(s + 1, max_degree + 1):
        nxt = []
        for r in layer:
            for c in (-1, 0, 1):
                q, rem = divmod(r[0] + c, h0)
                if rem:
                    continue
                child = tuple(a - q * b for a, b in zip(r[1:], mid)) + (-q,)
                if child in parent:
                    continue
                if len(parent) >= DEFAULT_BOUND:
                    raise BoundExceededError(
                        f"witness search reached {len(parent) + 1} carries by "
                        f"degree {degree}, over the bound {DEFAULT_BOUND}; "
                        "lower the degree"
                    )
                parent[child] = (r, c)
                if child == target:
                    digits = []
                    while parent[child] is not None:
                        child, c = parent[child]
                        digits.append(c)
                    return Polynomial(forced + tuple(reversed(digits)) + (1,))
                nxt.append(child)
        if not nxt:
            return None  # no carry left: no witness of any degree
        layer = nxt
    return None


# -- one instance of the connectivity experiment -----------------------------------


@dataclass(frozen=True)
class SccInstanceReport:
    """Outcome of probing c(A, e1) on the orbits of e1 and -e1."""

    chi: Polynomial
    chi_star: Polynomial
    states: tuple[tuple[int, ...], ...]
    decomposition: SccDecomposition
    nontrivial_components: tuple[int, ...]
    single_nontrivial: bool
    witness: Polynomial | None


def check_scc_instance(A: HalfIntegralMatrix, *,
                       bound: int = DEFAULT_BOUND) -> SccInstanceReport:
    """Decompose orbit(e1) union orbit(-e1) and read off the least witness.

    The interesting question is whether everything apart from the zero
    vector falls into one strongly connected component; the witness, when it
    exists, spells a path from e1 to -e1.  The walk from e1 is the witness
    search: the vectors it reaches are the division carries p(A^-1) e1 of
    `witness_search`, and its steps take the digits -1, 0, +1 as input 0 at
    an odd vector, either input at an even one and input 1 at an odd one, in
    the same breadth-first order.  So the first path to -e1 spells the
    (degree, lexicographic) least witness, and a walk that never reaches -e1
    proves that no witness of any degree exists.
    """
    if not isinstance(A, HalfIntegralMatrix):
        A = HalfIntegralMatrix(A)
    e1 = unit_vector(A.dim)
    neg = tuple(-c for c in e1)
    config = CompleteConfig(A, e1)
    graph = {}
    parent = {e1: None}  # first discovery from e1, with its path letter, until -e1
    for start in (e1, neg):
        if start not in graph:  # else its orbit is already in the graph
            for v, (step0, step1) in _walk(config, [start], bound):
                # input 0 outputs 1 exactly at an odd vector; at an even one
                # both inputs step to one tuple, kept once
                graph[v] = (step0[0], step1[0]) if step0[1] else (step0[0],)
                if start == e1 and neg not in parent:
                    for (w, _), letter in zip((step0, step1), "n1" if step0[1] else "00"):
                        parent.setdefault(w, (v, letter))
    dec = scc_decompose(graph)
    zero = (0,) * A.dim
    nontrivial = tuple(
        i for i, comp in enumerate(dec.components) if zero not in comp
    )
    # read back from -e1, so the first step's letter, c_0, comes last
    letters, link = [], parent.get(neg)
    while link is not None:
        v, letter = link
        letters.append(letter)
        link = parent[v]
    witness = path_polynomial("".join(letters)) if neg in parent else None
    return SccInstanceReport(
        chi=A.chi,
        chi_star=A.chi_star,
        states=tuple(sorted(graph)),
        decomposition=dec,
        nontrivial_components=nontrivial,
        single_nontrivial=len(nontrivial) == 1,
        witness=witness,
    )


# -- matrix inference ----------------------------------------------------------------


@dataclass(frozen=True)
class InferResult:
    matrix: HalfIntegralMatrix
    chi: Polynomial
    location: LocationMap


def infer_matrix(aut: MealyAutomaton, *, max_dim: int | None = None,
                 bound: int = DEFAULT_BOUND) -> InferResult | None:
    """The matrix whose complete automaton contains the machine, by construction.

    A located machine fixes chi (Nekrashevych and Sidki 2004), and `_fit`'s
    rescaled frame needs no A: with x as A^-1, the anchor sits at sigma_0 s
    and p = sigma_0 (x^L - 1) names e.  Spreading Laurent polynomials f as
    `_fit` spreads vectors leaves N = f_s - x f_t + sigma p per transition
    (s, b) -> t.  Any fit rescales to this frame in Q[x]/chi* (its anchor is
    odd, so nonzero), so chi* divides every N and their gcd G, also once G
    is stripped of x and of its common factors with x^L - 1: chi* has no
    root at 0 or on the unit circle.
    When G's chi (its reversal over G(0)) is half-integral and contracting,
    `locate` tries its companion matrix once, checking every transition:
    no closure runs.  Else, as when a factor besides chi* survives (none was
    seen), the machine is classified once, raising as `locate` does, and
    None is returned.  `max_dim` caps the degree of chi.
    """
    result = _construct_fit(aut, max_dim)
    if result is None:
        _require_abelian_free(aut, bound)
    return result


def classify(aut: MealyAutomaton, *, bound: int = DEFAULT_BOUND) -> AbelianReport:
    """`check_abelian`'s report, decided by a validated fit where one exists.

    The even-state identity tests run first, as in `check_abelian`: they
    are cheap and reject most machines that are not abelian.  Then
    `infer_matrix`'s construction and fit run.  A validated location map is
    a certificate (`locate`): the group is a subgroup of Z^m, free abelian,
    and every odd vector v has the residual difference A(v + e) - A(v - e)
    = 2Ae != 0 (Nekrashevych and Sidki 2004; Nekrashevych, Self-Similar
    Groups, 2005).  So the verdict is AbelianFreeCandidate, with gamma read
    off the table, and no odd-state comparison or gamma closure runs.  Only
    where nothing fits do those closures run, as in `check_abelian`.  The
    two reports are equal wherever `check_abelian` decides; where it
    reports Unknown, a fit makes this one AbelianFreeCandidate.
    NotInvertibleError as `check_abelian`.
    """
    table, odd = _odd_table(aut)
    if not odd:
        return AbelianReport(AbelianVerdict.TRIVIAL_GROUP)
    report, saw_unknown = _even_tests(table, bound)
    if report is not None:
        return report
    if _construct_fit(aut) is not None:
        return AbelianReport(AbelianVerdict.ABELIAN_FREE_CANDIDATE, gamma=gamma_of(aut))
    return _odd_tests(aut, table, odd, saw_unknown, bound)


def _construct_fit(aut: MealyAutomaton, max_dim: int | None = None) -> InferResult | None:
    """chi* as the relation gcd and `locate`'s fit of its companion matrix,
    or None when there is no chi of degree <= max_dim or its fit fails."""
    try:  # no odd state on a cycle, states out of reach, no chi, or a misfit
        star = _relation_gcd(aut)
        chi = Polynomial([Fraction(c, star.constant) for c in reversed(star.coeffs)])
        A = companion_from_chi(chi)
        if max_dim is None or A.dim <= max_dim:
            return InferResult(matrix=A, chi=chi, location=locate(aut, A, classify=False))
    except (LocateError, MatrixError):
        pass
    return None


def _relation_gcd(aut: MealyAutomaton) -> Polynomial:
    """G of `infer_matrix`, monic, or 0 when every relation vanishes.

    A polynomial sum c_i x^i is packed into the int sum c_i 2^(w i), so x^k
    is a shift by w k bits and a relation costs a few int operations.  The
    start s0 s has coefficients 0 and +-1, and each spread step shifts by x
    at most and adds one +-x^k p, whose coefficients are 0 and +-1.  So over
    n states a value's coefficients stay within n and a relation's within
    2n + 1 < 2^(w-1) in absolute value: each coefficient is one digit, and
    the packing is exact.  x^-k f is held as (k, packed f).  A relation is
    stripped of its sign and its powers of x (chi*(0) != 0), and only one
    not met before is unpacked and folded into the gcd.  A nonzero constant
    gcd is returned at once: no chi* divides it.
    """
    parity, anchor, sigmas = _anchor_cycle(aut)
    L, s0 = len(sigmas), sigmas[0]
    cycle = Polynomial([-1] + [0] * (L - 1) + [1])
    w = (2 * len(aut.states) + 1).bit_length() + 1
    p = s0 * ((1 << w * L) - 1)  # s0 (x^L - 1)
    start = sum(s0 * c << w * i for i, c in enumerate(sigmas))  # s0 s
    value = _spread(aut, parity, anchor, (0, start),
                    lambda v, bit, sig: (v[0] + 1, v[1] + sig * (p << w * v[0])),
                    lambda v, sig: (v[0], (v[1] << w) - sig * (p << w * v[0])))
    g, seen = Polynomial(), set()
    for (s, bit), (t, _) in aut.transitions.items():
        (k, f), (j, h) = value[s], value[t]
        top = max(k, j)  # x^top N is a polynomial
        rel = ((f << w * (top - k)) - (h << w * (top - j + 1))
               + _sigma(parity[s], bit) * (p << w * top))
        if rel:
            rel = abs(rel) >> w * (((rel & -rel).bit_length() - 1) // w)  # no x, no sign
            if rel not in seen:
                seen.add(rel)
                g = _gcd(Polynomial(_unpack(rel, w)), g)
                if g.degree == 0:
                    return g
    while not g.is_zero() and (h := _gcd(g, cycle)).degree > 0:
        g = _poly_divmod(g, h)[0]
    return g


def _unpack(n: int, w: int) -> list[int]:
    """The digits of n in base 2^w, each in [-2^(w-1), 2^(w-1)), constant first."""
    half, mask, digits = 1 << (w - 1), (1 << w) - 1, []
    while n:
        d = ((n + half) & mask) - half
        digits.append(d)
        n = (n - d) >> w
    return digits


def _gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over Q (0 for a = b = 0); a new relation a costs one division by b."""
    while not b.is_zero():
        a, b = b, _poly_divmod(a, b)[1]
    return a if a.leading in (0, 1) else Polynomial([Fraction(c) / a.leading for c in a.coeffs])
