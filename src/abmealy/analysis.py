"""Reachability structure of complete automata and experiment drivers.

Three instruments sit on top of the core machinery:

* strongly connected component decomposition of any finite successor graph,
  used to inspect how the orbit of the unit vector and its negation split;
* path polynomials and the search for a monic witness polynomial with
  coefficients in {-1, 0, 1} that is congruent to -1 modulo chi*, which is
  the algebraic shadow of a path carrying the unit vector to its negation;
* `infer_matrix`: chi* is the gcd of the relations that the machine's
  transitions impose, and one `locate` maps the machine into the complete
  automaton of its companion; the construction and `classify` are `complete`'s.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, islice, repeat
from operator import sub

from ._value import Value
from .complete import (
    CompleteConfig,
    LocationMap,
    _construct,
    _walk,
    classify,
    locate,
    unit_vector,
)
from .errors import BoundExceededError, FormatError, LocateError, MatrixError
from .exactalg import HalfIntegralMatrix, Polynomial, _check_modulus
from .group import DEFAULT_BOUND, _require_abelian_free, check_abelian
from .mealy import MealyAutomaton

# -- strongly connected components ---------------------------------------------


class SccDecomposition(Value):
    """Components of a finite directed graph, each sorted internally.

    The component list is ordered by least member.  `edges` holds the pairs
    of distinct component indices connected by at least one edge, and
    `cyclic[i]` says whether component i contains a cycle (more than one
    node, or a self-loop).
    """

    __match_args__ = ("components", "edges", "cyclic")
    __slots__ = __match_args__ + ("_component_of",)

    def __init__(self, components: tuple[tuple, ...], edges: frozenset, cyclic: tuple[bool, ...]):
        super().__init__(components, edges, cyclic)
        object.__setattr__(self, "_component_of", None)

    @property
    def component_of(self) -> dict:
        """Each node's component index, built on first read."""
        if self._component_of is None:
            object.__setattr__(self, "_component_of", {
                node: i for i, c in enumerate(self.components) for node in c})
        return self._component_of

    @property
    def terminal_indices(self) -> tuple[int, ...]:
        out = {i for i, _ in self.edges}
        return tuple(i for i in range(len(self.components)) if i not in out)


def _tarjan(first, targets) -> list[int]:
    """Tarjan's algorithm, iteratively, over the nodes 0 ... n - 1 of a graph in
    index form, node v's successors being targets[first[v]:first[v + 1]]:
    each node's component number, components numbered as they close."""
    n = len(first) - 1
    # num[v] is -1 until v is visited, then its visit number while its component
    # is open, and n + its component number once closed: above every visit
    # number, so that a closed node lowers no low-link.
    num, low, stack, path = [-1] * n, [0] * n, [], []
    push, pop, save, resume = stack.append, stack.pop, path.append, path.pop
    count, closed = 0, n
    for root in range(n):
        if num[root] >= 0:
            continue
        v, e = root, first[root]
        num[v] = low[v] = count
        count += 1
        push(v)
        while True:
            end = first[v + 1]
            while e < end:
                w = targets[e]
                e += 1
                k = num[w]
                if k < 0:  # unvisited: descend, and come back to v's next edge
                    save((v, e))
                    v, e = w, first[w]
                    num[v] = low[v] = count
                    count += 1
                    push(v)
                    end = first[v + 1]
                elif k < low[v]:
                    low[v] = k
            if low[v] == num[v]:  # v is the root of its component
                while (w := pop()) != v:
                    num[w] = closed
                num[v] = closed
                closed += 1
            if not path:
                break
            u, e = resume()
            if low[v] < low[u]:
                low[u] = low[v]
            v = u
    return [k - n for k in num]


def _decomposition(nodes, rank, first, targets) -> SccDecomposition:
    """The decomposition of the graph on nodes[0 ... n - 1] in `_tarjan`'s index
    form, rank listing the indices in the order of their sorted nodes: one pass
    over it puts each component's members in order, and the components are
    ordered by least member, the order in which the pass meets them."""
    comp = _tarjan(first, targets)
    groups = [[] for _ in range(max(comp, default=-1) + 1)]
    for v in rank:
        groups[comp[v]].append(nodes[v])
    label = {c: i for i, c in enumerate(dict.fromkeys(map(comp.__getitem__, rank)))}
    components = tuple(tuple(groups[c]) for c in label)
    del groups
    comp = list(map(label.__getitem__, comp))
    # the distinct (source, target) component pairs of all edges
    sources = chain.from_iterable(map(repeat, comp, map(sub, islice(first, 1, None), first)))
    cyclic, edges = [len(c) > 1 for c in components], set()
    for i, j in set(zip(sources, map(comp.__getitem__, targets))):
        if i == j:
            cyclic[i] = True
        else:
            edges.add((i, j))
    return SccDecomposition(
        components=components,
        edges=frozenset(edges),
        cyclic=tuple(cyclic),
    )


def scc_decompose(graph: dict) -> SccDecomposition:
    """Tarjan's algorithm over a node -> successors mapping, its nodes numbered
    once: each node's successors are read once, so any iterable will do.
    ValueError names the first successor, in the mapping's order, that is not
    a node."""
    nodes = list(graph)
    index = {node: i for i, node in enumerate(nodes)}
    first, targets = [0], []
    for succs in graph.values():
        try:
            targets.extend(map(index.__getitem__, succs))
        except KeyError as exc:
            raise ValueError(f"successor {exc.args[0]!r} is not a node of the graph") from None
        first.append(len(targets))
    del index
    return _decomposition(nodes, sorted(range(len(nodes)), key=nodes.__getitem__),
                          first, targets)


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


class SccInstanceReport(Value):
    """Outcome of probing c(A, e1) on the orbits of e1 and -e1."""

    __slots__ = __match_args__ = ("chi", "chi_star", "states", "decomposition",
                                  "nontrivial_components", "single_nontrivial", "witness")

    def __init__(self, chi: Polynomial, chi_star: Polynomial, states: tuple[tuple[int, ...], ...],
                 decomposition: SccDecomposition, nontrivial_components: tuple[int, ...],
                 single_nontrivial: bool, witness: Polynomial | None):
        super().__init__(chi, chi_star, states, decomposition, nontrivial_components,
                         single_nontrivial, witness)


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
    order, succ = _walk(config, [e1], bound)
    rank = sorted(range(len(order)), key=order.__getitem__)
    states = tuple(map(order.__getitem__, rank))
    at = bisect_left(states, neg)
    if at < len(states) and states[at] == neg:
        witness = _walk_witness(order, succ, rank[at])
    else:
        # v -> -v maps c(A, e1) onto itself, swapping the inputs at odd v, so
        # orbit(-e1) = -orbit(e1): the union is at most twice the first walk
        witness = None
        order, succ = _walk(config, [e1, neg], 2 * bound)
        rank = sorted(range(len(order)), key=order.__getitem__)
        states = tuple(map(order.__getitem__, rank))
    # both inputs step an even vector to one index, which Tarjan reads twice
    dec = _decomposition(order, rank, range(0, len(succ) + 1, 2), succ)
    z = (0,) * A.dim  # each component is sorted: bisect for the zero vector
    zero = next((i for i, c in enumerate(dec.components)
                 if (k := bisect_left(c, z)) < len(c) and c[k] == z), None)
    nontrivial = tuple(i for i in range(len(dec.components)) if i != zero)
    return SccInstanceReport(
        chi=A.chi,
        chi_star=A.chi_star,
        states=states,
        decomposition=dec,
        nontrivial_components=nontrivial,
        single_nontrivial=len(nontrivial) == 1,
        witness=witness,
    )


def _walk_witness(order, succ, j: int) -> Polynomial:
    """The path polynomial of `_walk`'s path from order[0] to order[j], read
    back so that the first step's letter, c_0, comes last.  The walk names
    each vector first when it discovers it, as a new highest index, so the
    first entry of succ naming j is the running maximum's first reach of j."""
    reach = list(accumulate(islice(succ, 2 * j), max))  # the parent of j is below j
    letters = []
    while j:
        p = bisect_left(reach, j)
        j = p >> 1
        letters.append("n1"[p & 1] if order[j][0] & 1 else "0")
    return path_polynomial("".join(letters))


# -- matrix inference ----------------------------------------------------------------


class InferResult(Value):
    __slots__ = __match_args__ = ("matrix", "chi", "location")

    def __init__(self, matrix: HalfIntegralMatrix, chi: Polynomial, location: LocationMap):
        super().__init__(matrix, chi, location)


def infer_matrix(aut: MealyAutomaton, *, max_dim: int | None = None,
                 bound: int = DEFAULT_BOUND) -> InferResult | None:
    """The matrix whose complete automaton contains the machine, by construction.

    `complete._construct` reads chi* off the machine's transitions, and its
    companion matrix always fits: one `locate` builds the map, and no closure
    runs.  Past `max_dim`, None is returned unclassified.  Where no chi comes
    out, `check_abelian` (what `classify` decides there) gates as in `locate`,
    raising outside AbelianFreeCandidate, and None is returned.
    """
    try:  # no odd state on a cycle, states out of reach, or no chi
        A = _construct(aut)
    except (LocateError, MatrixError):
        _require_abelian_free(aut, bound, check_abelian(aut, bound))
        return None
    if max_dim is not None and A.dim > max_dim:
        return None
    return InferResult(matrix=A, chi=A.chi, location=locate(aut, A, bound=bound))
