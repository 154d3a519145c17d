"""Reachability structure of complete automata and experiment drivers.

Three instruments sit on top of the core machinery:

* strongly connected component decomposition of any finite successor graph,
  used to inspect how the orbit of the unit vector and its negation split;
* path polynomials and the search for a monic witness polynomial with
  coefficients in {-1, 0, 1} that is congruent to -1 modulo chi*, which is
  the algebraic shadow of a path carrying the unit vector to its negation;
* an exhaustive inference loop that recovers a fitting matrix for a given
  abelian machine by enumerating contracting characteristic polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .complete import (
    CompleteConfig,
    LocationMap,
    _walk,
    locate,
    unit_vector,
)
from .errors import BoundExceededError, FormatError, LocateError, MatrixError
from .exactalg import (
    HalfIntegralMatrix,
    Polynomial,
    _check_modulus,
    companion_from_chi,
    is_contracting,
)
from .group import DEFAULT_BOUND
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


def infer_matrix(aut: MealyAutomaton, *, max_dim: int = 3, coeff_bound: int = 2,
                 bound: int = DEFAULT_BOUND) -> InferResult | None:
    """Search for a matrix whose complete automaton contains the machine.

    Enumerates characteristic polynomials x^m + g(x)/2 with g(0) = -1 or 1
    and the remaining coefficients of g ranging over [-coeff_bound,
    coeff_bound] in lexicographic order, keeps the contracting ones (each
    is irreducible, see `complete`), and accepts the first whose companion
    matrix locates the machine.  Acceptance is `locate`'s own validation:
    its map is checked on every transition, and a map that is a
    homomorphism there agrees with the machine on every word, by induction
    on its length, so each result is proven for all lengths.  Returns None
    when the space is exhausted.

    Raises BoundExceededError, before any search, when the box holds more
    than `bound` polynomials: sum over m <= max_dim of
    2 (2 coeff_bound + 1)^(m - 1), 62 at the defaults.
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
                chi = _chi_from_g((g0,) + rest, m)
                if not is_contracting(chi):
                    continue
                A = companion_from_chi(chi)
                try:
                    locmap = locate(aut, A, bound=bound)
                except (LocateError, MatrixError):
                    continue
                return InferResult(matrix=A, chi=chi, location=locmap)
    return None


def _chi_from_g(g: tuple[int, ...], m: int) -> Polynomial:
    """x^m + g(x)/2 for an integer tuple g of length m (constant first)."""
    return Polynomial([Fraction(c, 2) for c in g] + [Fraction(1)])
