"""Component decomposition, path polynomials, witness search, inference.

The witness machinery is tested semantically: a returned witness is decoded
back into a walk of the complete automaton and must physically carry the
unit vector to its negation."""

import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from abmealy import MealyAutomaton, analysis, complete, exactalg, group
from abmealy.analysis import (
    InferResult,
    SccDecomposition,
    check_scc_instance,
    classify,
    infer_matrix,
    path_polynomial,
    scc_decompose,
    witness_search,
)
from abmealy.cli import main
from abmealy.complete import (
    CompleteConfig,
    orbit,
    orbit_automaton,
    locate,
    residual_vector,
    unit_vector,
)
from abmealy.errors import (
    AbmealyError,
    BoundExceededError,
    FormatError,
    LocateError,
    MatrixError,
    NotAbelianError,
)
from abmealy.exactalg import (
    HALF,
    HalfIntegralMatrix,
    IntPolynomial,
    RationalMatrix,
    RationalPolynomial,
    companion_from_chi,
    reduce_mod,
)
from abmealy.group import DEFAULT_BOUND, AbelianReport, AbelianVerdict, format_combination

from conftest import (
    CORPUS_GS,
    CORPUS_GS_ALL,
    CORPUS_TO_1179,
    box_infer_matrix,
    closure_infer_matrix,
    closure_locate,
    conjugate,
    contracting_chis,
    division_carries,
    oracle_check_abelian,
    random_half_integral,
    random_machine,
    reference_scc_decompose,
    reference_scc_instance,
    transduction_agrees,
    union_machine,
    unit_config,
    verify_location,
)

CHI_A = RationalPolynomial.of(HALF, 1, 1)
CHI_STAR_A = IntPolynomial.of(2, 2, 1)
WITNESS_A = IntPolynomial.of(1, 0, 1, 1, 1)  # 1 + x^2 + x^3 + x^4


# -- strongly connected components ------------------------------------------------


def test_scc_hand_graphs():
    dec = scc_decompose({"a": ()})
    assert dec.components == (("a",),)
    assert dec.cyclic == (False,)
    assert dec.edges == frozenset()
    assert dec.terminal_indices == (0,)

    dec = scc_decompose({"a": ("a",)})
    assert dec.cyclic == (True,)

    dec = scc_decompose({"a": ("b",), "b": ("a",)})
    assert dec.components == (("a", "b"),)
    assert dec.cyclic == (True,)

    dec = scc_decompose({"a": ("b",), "b": ("c",), "c": ()})
    assert dec.components == (("a",), ("b",), ("c",))
    assert dec.cyclic == (False, False, False)
    assert dec.edges == frozenset({(0, 1), (1, 2)})
    assert dec.terminal_indices == (2,)
    assert dec.component_of == {"a": 0, "b": 1, "c": 2}

    dec = scc_decompose({"a": ("b",), "b": ("c", "a"), "c": ("c",)})
    assert dec.components == (("a", "b"), ("c",))
    assert dec.cyclic == (True, True)
    assert dec.edges == frozenset({(0, 1)})
    assert dec.terminal_indices == (1,)

    with pytest.raises(ValueError, match="not a node"):
        scc_decompose({"a": ("zzz",)})
    # met only after a back edge, two levels below the root
    with pytest.raises(ValueError, match="successor 'zzz' is not a node"):
        scc_decompose({"a": ("b",), "b": ("a", "c"), "c": ("b", "zzz")})
    # met from a later root, after the first root's component closed
    with pytest.raises(ValueError, match="successor 'zzz' is not a node"):
        scc_decompose({"a": ("a",), "b": ("a", "zzz")})


def _naive_scc(graph):
    """Transitive-closure oracle, deliberately quadratic and dumb."""
    nodes = sorted(graph)
    reach = {u: set() for u in nodes}
    for u in nodes:
        stack = list(graph[u])
        while stack:
            t = stack.pop()
            if t not in reach[u]:
                reach[u].add(t)
                stack.extend(graph[t])
    comps = []
    assigned = {}
    for u in nodes:
        if u in assigned:
            continue
        comp = tuple(
            sorted(
                v for v in nodes
                if v == u or (v in reach[u] and u in reach[v])
            )
        )
        for v in comp:
            assigned[v] = None
        comps.append(comp)
    comps.sort(key=lambda c: c[0])
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    cyclic = tuple(any(v in reach[v] for v in c) for c in comps)
    edges = frozenset(
        (comp_of[u], comp_of[t])
        for u in nodes
        for t in graph[u]
        if comp_of[u] != comp_of[t]
    )
    terminal = tuple(
        i for i in range(len(comps)) if all(a != i for a, _ in edges)
    )
    return tuple(comps), comp_of, edges, cyclic, terminal


def test_scc_matches_naive_oracle():
    """Random graphs of up to 40 nodes with self-loops and repeated
    successors, held in tuples, lists and sets: each container is read as
    it is handed over."""
    rng = random.Random(9090)
    loops = repeats = 0
    for trial in range(200):
        n = rng.randint(1, 40)
        p = rng.uniform(0, 3 / n)
        graph = {}
        for u in range(n):
            targets = [v for v in range(n) if rng.random() < p]
            targets += rng.choices(targets, k=rng.randint(0, 2)) if targets else []
            graph[u] = (tuple, list, set)[trial % 3](rng.sample(targets, len(targets)))
            loops += u in targets
            repeats += len(set(targets)) < len(targets) and trial % 3 < 2
        dec = scc_decompose(graph)
        comps, comp_of, edges, cyclic, terminal = _naive_scc(graph)
        assert dec.components == comps, graph
        assert dec.component_of == comp_of
        assert dec.edges == edges
        assert dec.cyclic == cyclic
        assert dec.terminal_indices == terminal
    assert loops >= 50 and repeats >= 50


def test_scc_decompose_matches_the_tuple_tarjan_reading_successors_once():
    """The index Tarjan against the tuple-keyed one on random graphs of up to
    40 nodes, labelled by strings, with self-loops and repeated successors;
    handed generators, it reads each node's successors exactly once."""
    rng = random.Random(9191)
    for trial in range(200):
        n = rng.randint(1, 40)
        p = rng.uniform(0, 3 / n)
        graph = {}
        for u in rng.sample(range(n), n):  # insertion order is not sorted order
            targets = [v for v in range(n) if rng.random() < p]
            targets += rng.choices(targets, k=rng.randint(0, 2)) if targets else []
            graph[f"n{u}"] = tuple(f"n{v}" for v in rng.sample(targets, len(targets)))
        want = reference_scc_decompose(graph)
        got = scc_decompose({u: (t for t in ts) for u, ts in graph.items()})
        assert got == want, graph
        assert list(got.component_of.items()) == list(want.component_of.items())
    # the first successor that is not a node, in the mapping's order, is named
    with pytest.raises(ValueError, match="successor 'x' is not a node"):
        scc_decompose({"a": ("b", "x"), "b": ("y",)})


# -- path polynomials ---------------------------------------------------------------


def test_path_polynomial_pinned():
    assert path_polynomial("") == IntPolynomial.of(1)
    assert path_polynomial("0") == IntPolynomial.of(0, 1)
    assert path_polynomial("1") == IntPolynomial.of(1, 1)
    assert path_polynomial("n") == IntPolynomial.of(-1, 1)
    assert path_polynomial("1n") == IntPolynomial.of(-1, 1, 1)
    assert path_polynomial("000") == IntPolynomial.of(0, 0, 0, 1)
    assert path_polynomial("1101") == WITNESS_A
    with pytest.raises(FormatError, match="path letter"):
        path_polynomial("012")


def test_path_polynomial_closed_form():
    rng = random.Random(123)
    signs = {"0": 0, "1": 1, "n": -1}
    for _ in range(40):
        word = "".join(rng.choice("01n") for _ in range(rng.randint(0, 10)))
        L = len(word)
        coeffs = [0] * (L + 1)
        coeffs[L] = 1
        for i, ch in enumerate(word):
            coeffs[L - 1 - i] += signs[ch]
        assert path_polynomial(word) == IntPolynomial(coeffs), word


def insert_fold(word):
    """`path_polynomial` as it was written before it built the coefficients
    in one pass, kept as its oracle: one insertion at the front per letter."""
    coeffs = [1]
    for ch in word:
        coeffs.insert(0, 0)
        if ch == "1":
            coeffs[0] += 1
        elif ch == "n":
            coeffs[0] -= 1
    return IntPolynomial(coeffs)


def test_path_polynomial_matches_the_insert_fold():
    rng = random.Random(131072)
    for _ in range(300):
        word = "".join(rng.choice("01n") for _ in range(rng.randint(0, 50)))
        assert path_polynomial(word) == insert_fold(word), word
    with pytest.raises(FormatError, match="got 'x'"):
        path_polynomial("01x2")  # the first bad letter is named
    word = "".join(rng.choice("01n") for _ in range(10**6))
    t0 = time.perf_counter()
    p = path_polynomial(word)
    assert time.perf_counter() - t0 < 5  # the insert fold takes minutes here
    assert p.degree == 10**6 and p.coeffs[:50] == insert_fold(word[-50:]).coeffs[:50]


# -- witness search --------------------------------------------------------------


def test_witness_search_pinned():
    assert witness_search(CHI_STAR_A) == WITNESS_A
    assert witness_search(CHI_STAR_A, 4) == WITNESS_A
    assert witness_search(CHI_STAR_A, 3) is None
    assert witness_search(IntPolynomial.of(-2, 1)) is None
    assert witness_search(IntPolynomial.of(2, 1)) == IntPolynomial.of(1, 1)
    with pytest.raises(MatrixError, match="monic"):
        witness_search(IntPolynomial.of(1, 2))
    with pytest.raises(MatrixError, match="monic"):
        witness_search(IntPolynomial.of(5))


def test_witness_search_stops_when_no_carry_is_left():
    # x - 2 leaves no carry after its first layer: a degree cap of 10^8 must
    # not make the search walk 10^8 empty layers
    t0 = time.perf_counter()
    assert witness_search(IntPolynomial.of(-2, 1), max_degree=10**8) is None
    assert time.perf_counter() - t0 < 1


def test_witness_search_minimality_brute_force():
    """Enumerate every monic {-1,0,1}-polynomial of degree <= 4 and check the
    search returned the (degree, lexicographic) minimum of the hits."""
    from itertools import product as iproduct

    hits = []
    for degree in range(0, 5):
        for lower in iproduct((-1, 0, 1), repeat=degree):
            p = IntPolynomial(lower + (1,))
            if reduce_mod(p + 1, CHI_STAR_A).is_zero():
                hits.append((degree, lower, p))
    assert all(d == 4 for d, _, _ in hits)
    assert min(hits)[2] == WITNESS_A
    assert WITNESS_A in [p for _, _, p in hits]
    assert len(hits) == 1  # at degree 4 the witness is in fact unique


def test_witness_is_congruent_to_minus_one():
    rng = random.Random(77)
    for _ in range(15):
        deg = rng.randint(1, 3)
        star = IntPolynomial([rng.randint(-3, 3) for _ in range(deg)] + [1])
        w = witness_search(star, 6)
        if w is None:
            continue
        assert w.is_monic()
        assert all(c in (-1, 0, 1) for c in w.coeffs[:-1])
        assert reduce_mod(w + 1, star).is_zero()


def test_witness_word_drives_unit_to_negation(mat_a):
    """Decode the pinned witness into steps of c(A, e1): coefficient i is the
    sign used at step i+1, and the walk must end at -e1."""
    cfg = CompleteConfig(mat_a, (1, 0))
    v = (1, 0)
    for s in WITNESS_A.coeffs[:-1]:
        odd = v[0] % 2 == 1
        assert odd == (s != 0)  # the word is feasible step by step
        bit = (1 if s > 0 else 0) if odd else 0
        v, _ = residual_vector(cfg, v, bit)
    assert v == (-1, 0)


def _dfs_witness(star, max_degree):
    """The exhaustive search that witness_search replaced, kept as an oracle:
    every {-1,0,1} word of each degree, the constant term varying slowest,
    tested against the residue of -1 - x^degree at the leaves."""
    star = IntPolynomial(star)
    m = star.degree

    def residue(p):
        r = reduce_mod(p, star)
        return tuple(r.coeffs) + (0,) * (m - len(r.coeffs))

    minus_one = residue(IntPolynomial.of(-1))
    x_power = [residue(IntPolynomial((0,) * i + (1,))) for i in range(max_degree + 1)]

    def dfs(target, degree, pos, acc, chosen):
        if pos == degree:
            return list(chosen) if acc == target else None
        for c in (-1, 0, 1):
            nxt = tuple(a + c * b for a, b in zip(acc, x_power[pos])) if c else acc
            chosen.append(c)
            found = dfs(target, degree, pos + 1, nxt, chosen)
            if found is not None:
                return found
            chosen.pop()
        return None

    for degree in range(max_degree + 1):
        target = tuple(a - b for a, b in zip(minus_one, x_power[degree]))
        found = dfs(target, degree, 0, (0,) * m, [])
        if found is not None:
            return IntPolynomial(found + [1])
    return None


def test_witness_search_matches_the_dfs_on_every_small_modulus():
    """Every monic chi* of degree 1-3 with lower coefficients in [-3, 3]:
    constant term 0 (chi* divisible by x), +-1 (three digits a step) and
    +-2, +-3."""
    from itertools import product as iproduct

    found = 0
    for degree in (1, 2, 3):
        for lower in iproduct(range(-3, 4), repeat=degree):
            star = lower + (1,)
            for max_degree in (0, 1, 3, 6):
                want = _dfs_witness(star, max_degree)
                assert witness_search(star, max_degree) == want, (star, max_degree)
                found += want is not None
    assert found == 122  # the comparison is not all None


def test_witness_search_matches_the_dfs_on_random_moduli():
    rng = random.Random(2024)
    for _ in range(120):
        degree = rng.randint(1, 6)
        star = tuple(rng.randint(-4, 4) for _ in range(degree)) + (1,)
        max_degree = rng.randint(0, 8)
        assert witness_search(star, max_degree) == _dfs_witness(star, max_degree), (
            star, max_degree)


# chi* of both chi of every corpus size class o7-o55275, and of
# chi = 1/2 + x + x^2 + x^3 + x^4, with the least witness of degree <= 12.
CORPUS_WITNESSES = {
    (2, 2, 1): (1, 0, 1, 1, 1),
    (2, -2, 1): (1, 0, -1, 1),
    (2, 1, 1, 1, 1): (1, 1, 1, 1, 1),
    (2, -1, 1, -1, 1): (1, -1, 1, -1, 1),
    (2, -2, 0, 1): (1, 0, 0, -1, 1, 1),
    (-2, -2, 0, 1): (1, 0, 0, -1, -1, -1, 1),
    (2, -1, 1, 0, 1): (1, -1, 1, 0, 1),
    (2, 1, 1, 0, 1): (1, 1, 1, 0, 1),
    (2, -1, -1, 0, 1): (1, -1, -1, 0, 1),
    (2, 1, -1, 0, 1): (1, 1, -1, 0, 1),
    (-2, 0, 0, 0, -1, 0, 1): (1, 0, 0, 0, -1, 0, -1, 0, -1, 0, 1),
    (2, 0, 0, 0, 1, 0, 1): (1, 0, 0, 0, 1, 0, 1),
    (2, -3, 3, -2, 1): (1, -1, 0, 1, -1, 1),
    (2, 3, 3, 2, 1): (1, -1, -1, -1, 0, 0, 1),
    (2, 1, 2, 1, 1, 1): (1, -1, -1, 0, -1, 1, -1, 0, 1),
    (-2, 1, -2, 1, -1, 1): (1, -1, 0, 0, -1, 0, -1, 1),
    (2, 0, 1, 0, 1, 1): (1, 0, 1, 0, 1, 1),
    (-2, 0, -1, 0, -1, 1): (1, 0, -1, 0, 0, -1, -1, 1),
    (2, 0, 0, 1, 0, -1, 1): (1, 0, 0, 1, 0, -1, 1),
    (2, 0, 0, -1, 0, 1, 1): (1, 0, 0, -1, 0, 1, 1),
    (-2, 1, 0, 0, -1, 0, 1): (1, -1, 0, 0, -1, 1, -1, 0, -1, 0, 1),
    (-2, -1, 0, 0, -1, 0, 1): (1, -1, -1, 0, 1, -1, -1, 1),
    (2, 2, 2, 2, 1): None,
}


def test_witness_search_matches_the_dfs_on_the_corpus():
    for star, want in CORPUS_WITNESSES.items():
        got = witness_search(star)
        assert got == _dfs_witness(star, 12), star
        assert got == (None if want is None else IntPolynomial(want)), star


def test_witness_search_beyond_the_dfs_reach():
    """Degrees whose 3^d words the exhaustive search could not walk."""
    w16 = witness_search((2, 2, 2, 2, 1), 16)
    assert w16 == IntPolynomial.of(1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1)
    assert witness_search((2, 2, 2, 2, 1), 15) is None
    w25 = witness_search((2, 2, 2, 2, 2, 1), 25)
    assert w25.degree == 25
    for w, star in ((w16, (2, 2, 2, 2, 1)), (w25, (2, 2, 2, 2, 2, 1))):
        assert reduce_mod(w + 1, star).is_zero()


def test_witness_search_budget_on_unit_constant_term():
    """chi*(0) = 1 admits all three digits a step; the carries outgrow
    DEFAULT_BOUND before degree 12 and the search stops with an error."""
    with pytest.raises(BoundExceededError, match=(
            r"^witness search reached 100001 carries by degree 12, over the "
            r"bound 100000; lower the degree$")):
        witness_search((1, 3, 1))
    assert witness_search((1, 3, 1), 8) == _dfs_witness((1, 3, 1), 8)


# -- one experiment instance --------------------------------------------------------


def test_check_scc_instance_main(mat_a):
    report = check_scc_instance(mat_a)
    assert report.chi == CHI_A
    assert report.chi_star == CHI_STAR_A
    assert report.states == (
        (-2, -1), (-1, -1), (-1, 0), (0, 0), (1, 0), (1, 1), (2, 1),
    )
    dec = report.decomposition
    assert len(dec.components) == 2
    assert dec.components[1] == ((0, 0),)
    assert len(dec.components[0]) == 6
    assert report.nontrivial_components == (0,)
    assert report.single_nontrivial is True
    assert dec.component_of[(1, 0)] == dec.component_of[(-1, 0)]
    assert dec.cyclic == (True, True)
    assert dec.terminal_indices == (1,)
    assert report.witness == WITNESS_A


def test_check_scc_instance_sausage():
    A = companion_from_chi(RationalPolynomial.of(-HALF, 1))
    report = check_scc_instance(A)
    assert report.chi_star == IntPolynomial.of(-2, 1)
    assert report.states == ((-1,), (0,), (1,))
    assert report.decomposition.components == (((-1,),), ((0,),), ((1,),))
    assert report.decomposition.cyclic == (True, True, True)
    assert report.nontrivial_components == (0, 2)
    assert report.single_nontrivial is False
    assert report.witness is None
    dec = report.decomposition
    assert dec.component_of[(1,)] != dec.component_of[(-1,)]


def test_check_scc_instance_mirror():
    A = companion_from_chi(RationalPolynomial.of(HALF, 1))
    report = check_scc_instance(A)
    assert report.chi_star == IntPolynomial.of(2, 1)
    assert report.states == ((-1,), (0,), (1,))
    assert report.decomposition.components == (((-1,), (1,)), ((0,),))
    assert report.nontrivial_components == (0,)
    assert report.single_nontrivial is True
    assert report.witness == IntPolynomial.of(1, 1)


def chi_of_star(star):
    """chi from chi*: x^m chi*(1/x) / chi*(0), the reversed coefficients."""
    return RationalPolynomial([Fraction(c, star[0]) for c in reversed(star)])


CORPUS_CHIS = tuple(chi_of_star(star) for star in CORPUS_WITNESSES)


def test_division_carries_are_the_unit_orbit():
    """Carry p is the vector p(A^-1) e1, and for a companion A the two are
    one tuple: the carry walk and the orbit of e1 are one graph."""
    for chi in contracting_chis() + CORPUS_CHIS:
        A = companion_from_chi(chi)
        e1 = unit_vector(A.dim)
        assert division_carries(A.chi_star.coeffs) == set(orbit(CompleteConfig(A, e1), e1)), chi


def krylov_det(A):
    """det of the basis e1, A^-1 e1, ..., A^-(m-1) e1."""
    cols, b = [], unit_vector(A.dim)
    for _ in range(A.dim):
        cols.append(b)
        b = tuple(sum(a * x for a, x in zip(row, b)) for row in A.inv_rows)
    return RationalMatrix([list(row) for row in zip(*cols)]).det()


def test_check_scc_instance_witness_is_the_least_witness():
    """The walk from e1 finds witness_search's least witness, on companion
    and non-companion matrices of dimension 2-6 alike, and finds none
    exactly when -e1 is not in orbit(e1).  witness_search to degree 60 is
    the reference: no least witness here has a higher degree."""
    rng = random.Random(14)
    randoms = []
    while len(randoms) < 100:
        A = random_half_integral(rng, rng.choice((2, 3)))
        if A.contracting:
            randoms.append(A)
    assert sum(abs(krylov_det(A)) != 1 for A in randoms) >= 20
    companions = [companion_from_chi(chi) for chi in contracting_chis() + CORPUS_CHIS]
    # conjugates of the corpus companions of dimension 4-6, which rejection
    # sampling almost never reaches
    for g in CORPUS_TO_1179:
        if len(g) >= 4:
            B, _ = conjugate(unit_config(g).A, rng)
            assert B.companion is None
            randoms.append(B)
    found = 0
    for A in companions + randoms:
        report = check_scc_instance(A)
        assert report.witness == witness_search(A.chi_star, 60), A
        e1 = unit_vector(A.dim)
        reached = tuple(-c for c in e1) in orbit(CompleteConfig(A, e1), e1)
        assert (report.witness is not None) == reached, A
        found += reached
    assert 0 < found < len(companions) + len(randoms)


@pytest.mark.parametrize("g", [None] + CORPUS_TO_1179)
def test_check_scc_instance_matches_the_two_successor_graph(g, mat_a):
    """Keeping one successor at an even vector decomposes the graph of
    orbit(e1) union orbit(-e1) as keeping both steps of every vector does."""
    A = mat_a if g is None else unit_config(g).A
    e1 = unit_vector(A.dim)
    config, graph = CompleteConfig(A, e1), {}
    for start in (e1, tuple(-c for c in e1)):
        if start not in graph:
            order, succ = complete._walk(config, [start], group.DEFAULT_BOUND)
            for i, v in enumerate(order):
                graph[v] = (order[succ[2 * i]], order[succ[2 * i + 1]])
    assert check_scc_instance(A).decomposition == scc_decompose(graph)


def _scc_oracle_matrices():
    """(id, A): the corpus chi up to o55275, dimension 1, conjugated
    non-companion matrices, and chi whose -e1 is off orbit(e1), so that two
    walks run."""
    rng = random.Random(26)
    cases = [(f"g{','.join(map(str, g))}", unit_config(g).A) for g in CORPUS_GS_ALL]
    cases += [("x-1/2", companion_from_chi(RationalPolynomial.of(-HALF, 1))),
              ("x+1/2", companion_from_chi(RationalPolynomial.of(HALF, 1))),
              ("g1,2,2,2", unit_config((1, 2, 2, 2)).A)]
    for g in ((-1, 0), (-1, 0, 0, 0)):  # chi = x^m - 1/2
        cases.append((f"off{len(g)}", unit_config(g).A))
    for g in ((1, 0, 1, 1), (1, 1, 0, 1, 0), (-1, 0, 0)):
        B, _ = conjugate(unit_config(g).A, rng)
        assert B.companion is None
        cases.append((f"conj{','.join(map(str, g))}", B))
    return cases


@pytest.mark.parametrize("A", [pytest.param(A, id=name) for name, A in _scc_oracle_matrices()])
def test_check_scc_instance_matches_the_tuple_tarjan(A):
    """The walk's indices through the one index Tarjan against the vector
    tuples through the tuple-keyed Tarjan, field by field and in order."""
    got, want = check_scc_instance(A), reference_scc_instance(A)
    assert got == want
    assert list(got.decomposition.component_of.items()) == list(
        want.decomposition.component_of.items())
    e1 = unit_vector(A.dim)
    off = tuple(-c for c in e1) not in orbit(CompleteConfig(A, e1), e1)
    assert off == (got.witness is None)


def test_check_scc_instance_bounds_each_walk_as_the_tuple_walks():
    """Where -e1 is off orbit(e1), one walk of both orbits replaces a walk of
    each: the bound still caps orbit(e1) alone, never the union."""
    A = unit_config((-1, 0, 0, 0)).A
    size = len(orbit(CompleteConfig(A, unit_vector(4)), unit_vector(4)))
    assert len(check_scc_instance(A).states) > size
    for bound in range(1, size + 2):
        assert full_outcome(check_scc_instance, A, bound=bound) == full_outcome(
            reference_scc_instance, A, bound=bound), bound


def test_check_scc_instance_none_is_proven_at_every_degree():
    """x - 1/2 and x^3 - 1/2: the carry -1 is unreachable, so no witness
    exists at any degree; 1/2 + x + x^2 + x^3 + x^4 has its least witness at
    degree 16, past any fixed search degree of 12."""
    for chi in (RationalPolynomial.of(-HALF, 1), RationalPolynomial.of(-HALF, 0, 0, 1)):
        A = companion_from_chi(chi)
        assert check_scc_instance(A).witness is None
        assert (-1,) + (0,) * (A.dim - 1) not in division_carries(A.chi_star.coeffs)
    report = check_scc_instance(companion_from_chi(RationalPolynomial.of(HALF, 1, 1, 1, 1)))
    assert report.single_nontrivial
    assert report.witness == IntPolynomial.of(1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1)


# -- matrix inference ----------------------------------------------------------------


def test_infer_matrix_rediscovers(a32, mat_a):
    result = infer_matrix(a32, max_dim=2)
    assert isinstance(result, InferResult)
    assert result.chi == CHI_A
    assert result.matrix == mat_a
    assert result.location.e == (3, 2)
    assert result.location.assignment == {
        "f": (1, 0), "f0": (0, 1), "f1": (-2, -2),
    }


def test_infer_matrix_principal(principal_figure, mat_a):
    result = infer_matrix(principal_figure, max_dim=2)
    assert result is not None
    assert result.chi == CHI_A
    assert result.location.e == (1, 1)


def test_infer_matrix_classifies_the_machine_once(a32, lamplighter, monkeypatch):
    calls = {"classify": [], "check_abelian": [], "locate": 0, "char_poly": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name in ("classify", "check_abelian"):
                calls[name].append(args[0].name)
            else:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # each name is counted in every module that binds it
    counted_classify = counted("classify", complete.classify)
    monkeypatch.setattr(analysis, "classify", counted_classify)
    monkeypatch.setattr(complete, "classify", counted_classify)
    counted_check = counted("check_abelian", group.check_abelian)
    monkeypatch.setattr(group, "check_abelian", counted_check)
    monkeypatch.setattr(analysis, "check_abelian", counted_check)
    monkeypatch.setattr(analysis, "locate", counted("locate", analysis.locate))
    char_poly = counted("char_poly", exactalg.char_poly)
    for module in (exactalg, complete, analysis, group):
        if hasattr(module, "char_poly"):
            monkeypatch.setattr(module, "char_poly", char_poly)
    # the constructed chi is located once, and the construction proves the
    # group free abelian: no classification runs
    assert infer_matrix(a32) is not None
    assert calls["locate"] == 1
    assert calls["classify"] == calls["check_abelian"] == []
    # the chi comes with its companion matrix
    assert calls["char_poly"] == 0
    # when no chi comes out, check_abelian gates once, as classify would there
    with pytest.raises(NotAbelianError, match=re.escape(
            "automaton 'lamplighter' classified NotAbelian: d1(beta) - d0(beta) = "
            "alpha - beta is not the identity (odd element along path ''); "
            "need AbelianFreeCandidate")):
        infer_matrix(lamplighter)
    assert calls["check_abelian"] == ["lamplighter"]
    # a chi past max_dim is still a certificate: None, with no classification
    assert infer_matrix(a32, max_dim=1) is None
    assert calls["check_abelian"] == ["lamplighter"]
    assert calls["classify"] == [] and calls["locate"] == 1


def test_infer_matrix_exhaustion(a32):
    # a chi past max_dim is not reported; nor is one for two machines side
    # by side, which no propagation from one anchor reaches in full
    assert infer_matrix(a32, max_dim=1) is None
    assert infer_matrix(union_machine()) is None


def test_infer_matrix_requires_abelian_free(lamplighter, xyz):
    with pytest.raises(NotAbelianError):
        infer_matrix(lamplighter)
    with pytest.raises(NotAbelianError):
        infer_matrix(xyz)


def _orbit_machine(g):
    A = companion_from_chi(RationalPolynomial([Fraction(c, 2) for c in g] + [1]))
    e1 = unit_vector(A.dim)
    return orbit_automaton(CompleteConfig(A, e1), [e1])


# Both chi of each corpus size class o7-o31, as g in chi = x^m + g(x)/2, with
# the chi that `infer` places the orbit machine in: its own.
ORBIT_INFER = {
    (1, 2): "1/2 + x + x^2",
    (1, -2): "1/2 - x + x^2",
    (1, 1, 1, 1): "1/2 + 1/2x + 1/2x^2 + 1/2x^3 + x^4",
    (1, -1, 1, -1): "1/2 - 1/2x + 1/2x^2 - 1/2x^3 + x^4",
    (1, 0, -2): "1/2 - x^2 + x^3",  # the 23-state machine the benchmark infers
    (-1, 0, 2): "-1/2 + x^2 + x^3",
    (1, 0, 1, -1): "1/2 + 1/2x^2 - 1/2x^3 + x^4",
    (1, 0, 1, 1): "1/2 + 1/2x^2 + 1/2x^3 + x^4",
    (1, 0, -1, -1): "1/2 - 1/2x^2 - 1/2x^3 + x^4",
    (1, 0, -1, 1): "1/2 - 1/2x^2 + 1/2x^3 + x^4",
}


def _assert_oracle_accepts(aut, want_chi):
    """The accepted location agrees with the machine on all words up to
    length 10, checked word by word, independently of validate."""
    result = infer_matrix(aut)
    assert (None if result is None else str(result.chi)) == want_chi
    if result is not None:
        assert verify_location(aut, result.matrix, result.location, 10)


def test_infer_results_pass_the_brute_force_oracle(a32, principal_figure):
    _assert_oracle_accepts(a32, "1/2 + x + x^2")
    _assert_oracle_accepts(principal_figure, "1/2 + x + x^2")


@pytest.mark.parametrize("g", list(ORBIT_INFER))
def test_infer_results_on_orbit_machines_pass_the_brute_force_oracle(g):
    _assert_oracle_accepts(_orbit_machine(g), ORBIT_INFER[g])


@pytest.mark.parametrize("g", CORPUS_GS)
def test_infer_places_each_corpus_machine_at_its_own_chi(g):
    aut = _orbit_machine(g)
    result = infer_matrix(aut)
    assert result is not None
    assert result.chi == RationalPolynomial([Fraction(c, 2) for c in g] + [1])
    result.location.validate(aut, result.matrix)


# chi = -1/2 + 1/2x^2 - 1/2x^3 + x^4, e = (-1,0,-1,-1), from (1,2,-4,-1): 227
# states, which check_abelian leaves Unknown at the default bound
CHI227 = RationalPolynomial.of(-HALF, 0, HALF, -HALF, 1)


def machine_227():
    config = CompleteConfig(companion_from_chi(CHI227), (-1, 0, -1, -1))
    return orbit_automaton(config, [(1, 2, -4, -1)])


def test_infer_constructs_the_own_chi_of_every_corpus_machine_with_no_closure(monkeypatch):
    # o7-o1179 and the 227-state machine: a fit needs no closure
    calls = []
    test = group._identity_test_coeffs
    monkeypatch.setattr(group, "_identity_test_coeffs",
                        lambda *args: calls.append(args[1]) or test(*args))
    machines = [(_orbit_machine(g), RationalPolynomial([Fraction(c, 2) for c in g] + [1]))
                for g in CORPUS_TO_1179]
    machines.append((machine_227(), CHI227))
    assert len(machines[-1][0].states) == 227
    for aut, chi in machines:
        result = infer_matrix(aut)
        assert result.chi == chi
        result.location.validate(aut, result.matrix)
    assert calls == []


def outcome(fn, aut):
    """What fn returns, or the class of the domain error it raises."""
    try:
        return fn(aut)
    except AbmealyError as exc:
        return type(exc)


def test_infer_matrix_agrees_with_the_candidate_box(a32, principal_figure, lamplighter, xyz):
    """Where the box places a machine, infer_matrix returns the same result;
    where it raises, the same class; where it returns None, a map that the
    brute-force transduction oracle accepts, or None."""
    rng = random.Random(18)
    machines = [_orbit_machine(g) for g in ORBIT_INFER]
    machines += [a32, principal_figure, lamplighter, xyz]
    machines += [random_machine(rng, rng.randint(2, 7)) for _ in range(2000)]
    kinds = Counter()
    for aut in machines:
        want = outcome(box_infer_matrix, aut)
        got = outcome(infer_matrix, aut)
        if want is None and isinstance(got, InferResult):
            assert transduction_agrees(aut, got.matrix, got.location, 8)
            kinds["new"] += 1
        else:
            assert got == want, aut.transitions
            kinds[want.__name__ if isinstance(want, type) else type(want).__name__] += 1
    # the dimension-4 corpus machines lie outside the box
    assert kinds["new"] >= 6
    assert kinds["InferResult"] > 80 and kinds["NotAbelianError"] > 1000


# -- classification -----------------------------------------------------------------


def _random_located_machine(rng, mats, max_states=60):
    """(machine, A): the orbit machine of 1-3 random start vectors in c(A, e),
    A drawn from mats and e a random odd vector; redrawn until the orbit has
    at most max_states states."""
    while True:
        A = rng.choice(mats)
        e = (rng.choice((-3, -1, 1, 3)),) + tuple(rng.randint(-2, 2) for _ in range(A.dim - 1))
        starts = [tuple(rng.randint(-3, 3) for _ in range(A.dim))
                  for _ in range(rng.randint(1, 3))]
        try:
            return orbit_automaton(CompleteConfig(A, e), starts, bound=max_states), A
        except BoundExceededError:
            pass


def _constructed_fit(aut):
    """The constructed matrix's fit of the machine, or None where there is
    none or it misfits."""
    try:
        A = complete._construct(aut)
        return InferResult(matrix=A, chi=A.chi,
                           location=complete._fit(aut, A, complete._anchor_cycle(aut)))
    except (LocateError, MatrixError):
        return None


def _classify_machines(a32, xyz, lamplighter):
    """(cheap, located): small corpus and figure machines with 2,000 random
    ones, and 300 orbit machines of random starts, all drawn from seed 19."""
    rng = random.Random(19)
    mats = [companion_from_chi(chi) for chi in contracting_chis(max_dim=3)]
    cheap = [_orbit_machine(g) for g in CORPUS_GS[:-2]] + [a32, xyz, lamplighter,
                                                           union_machine()]
    cheap += [random_machine(rng, rng.randint(2, 7)) for _ in range(2000)]
    return cheap, [_random_located_machine(rng, mats)[0] for _ in range(300)]


def test_classify_agrees_with_check_abelian_and_the_oracle(a32, xyz, lamplighter):
    """Where check_abelian decides, classify's report is the same; where it
    reports Unknown, classify says AbelianFreeCandidate exactly when the
    constructed matrix fits, and Unknown otherwise."""
    cheap, located = _classify_machines(a32, xyz, lamplighter)
    cases = [(aut, DEFAULT_BOUND, True) for aut in cheap]
    # the oracle runs on the cheap machines only: o61 costs check_abelian about
    # two seconds a chi
    cases += [(_orbit_machine(g), DEFAULT_BOUND, False) for g in CORPUS_GS[-2:]]
    # a small bound leaves check_abelian Unknown on many located machines
    cases += [(aut, bound, False) for aut in located for bound in (DEFAULT_BOUND, 20)]
    kinds = Counter()
    for aut, bound, with_oracle in cases:
        want, got = group.check_abelian(aut, bound), classify(aut, bound=bound)
        if with_oracle:
            assert oracle_check_abelian(aut, bound) == want, aut.serialize()
        if want.verdict is AbelianVerdict.UNKNOWN:
            fit = _constructed_fit(aut)
            if fit is not None:
                fit.location.validate(aut, fit.matrix)
                want = AbelianReport(AbelianVerdict.ABELIAN_FREE_CANDIDATE,
                                     gamma=group.gamma_of(aut))
            kinds["unknown", fit is not None] += 1
        assert got == want, aut.serialize()
        assert str(got.gamma) == str(want.gamma)
        kinds[got.verdict] += 1
    assert set(kinds) >= set(AbelianVerdict)
    assert kinds["unknown", True] > 10 and kinds["unknown", False] > 0
    assert kinds[AbelianVerdict.ABELIAN_FREE_CANDIDATE] > 500


def test_every_construction_is_fitted_by_its_companion_matrix(
        a32, xyz, lamplighter, principal_figure, identity_machine, flip):
    """Wherever `_construct` returns, `_fit` in its frame validates: the
    certificate that classify and infer_matrix take from the construction
    alone (`_construct`'s proof), rechecked transition by transition.  An
    orbit machine of c(A, e) constructs A's own chi.  Over the corpus
    o7-o1179 and the 227-state machine, the figure machines, the machines of
    `_classify_machines`, and orbit machines of random non-companion
    matrices of dimension 2-3 and of conjugates of the corpus matrices of
    dimension 4-6: their Krylov bases need not be unimodular."""
    rng = random.Random(25)
    cheap, located = _classify_machines(a32, xyz, lamplighter)
    owned = [(_orbit_machine(g), unit_config(g).A) for g in CORPUS_TO_1179]
    owned.append((machine_227(), companion_from_chi(CHI227)))
    randoms = []
    while len(randoms) < 40:
        A = random_half_integral(rng, rng.choice((2, 3)))
        if A.contracting:
            randoms.append(A)
    owned += [_random_located_machine(rng, randoms, 200) for _ in range(300)]
    for g in CORPUS_TO_1179:  # random starts would mostly pass the bound in dimension 4-6
        if len(g) >= 4:
            B, e1 = conjugate(unit_config(g).A, rng)[0], unit_vector(len(g))
            owned.append((orbit_automaton(CompleteConfig(B, e1), [e1]), B))
    machines = [(aut, None) for aut in cheap + located
                + [principal_figure, identity_machine, flip]] + owned
    kinds = Counter()
    for aut, own in machines:
        try:
            A = complete._construct(aut)
        except (LocateError, MatrixError):
            kinds["none", own is not None] += 1
            continue
        complete._fit(aut, A, complete._anchor_cycle(aut))  # validates, or raises LocateError
        if own is not None:
            assert A.chi == own.chi, aut.serialize()
        kinds["fit", own is not None] += 1
    assert kinds["fit", True] > 200 and kinds["fit", False] > 250
    assert kinds["none", False] > 1500


# The odometer s0 beside two even states that swap, both the identity.  The
# swap leaves the relation (1 - x^2) f, and the anchor's cycle, of length 1,
# strips only x - 1 from the gcd.
ODOMETER_SWAP = {("s0", 0): ("s0", 1), ("s0", 1): ("s2", 0), ("s1", 0): ("s2", 0),
                 ("s1", 1): ("s2", 1), ("s2", 0): ("s1", 0), ("s2", 1): ("s1", 1)}


def test_a_factor_left_in_the_gcd_costs_the_matrix_never_the_verdict():
    """The gcd keeps x + 1 beside chi* = x - 2, and (x - 2)(x + 1) is not a
    contracting chi*: the construction strips every cyclotomic factor there,
    so chi = x - 1/2 comes out, classify decides what the closures decide,
    and infer places the machine where locate places it in c(1/2, -1)."""
    aut = MealyAutomaton(ODOMETER_SWAP, name="odometer_swap")
    assert str(complete._relation_gcd(aut, complete._anchor_cycle(aut))) == "-2 - x + x^2"
    assert str(complete._construct(aut).chi) == "-1/2 + x"
    want = group.check_abelian(aut)
    assert want.verdict is AbelianVerdict.ABELIAN_FREE_CANDIDATE
    assert classify(aut) == want
    result = infer_matrix(aut)
    assert result.matrix == HalfIntegralMatrix([[HALF]])
    assert (result.location.e, str(result.location.p)) == ((-1,), "-1")
    placed = {"s0": (1,), "s1": (0,), "s2": (0,)}
    assert result.location.assignment == placed
    assert locate(aut, [[HALF]]).assignment == placed
    assert verify_location(aut, result.matrix, result.location)


def test_a_gcd_that_no_strip_makes_contracting_is_refused(monkeypatch):
    """x^2 - 5x + 2 has no cyclotomic factor and a root inside the unit
    circle: with or without a cyclotomic factor beside it, no chi comes out,
    and the error names the stripped chi."""
    aut = MealyAutomaton(ODOMETER_SWAP, name="odometer_swap")
    for g in ((2, -5, 1), (2, -3, -4, 1)):  # and times x + 1
        monkeypatch.setattr(complete, "_relation_gcd", lambda *args, g=g: IntPolynomial(g))
        with pytest.raises(MatrixError, match=re.escape("1/2 - 5/2x + x^2 is not contracting")):
            complete._construct(aut)


def _closure_gamma_text(aut):
    """d1(o) - d0(o) for the least odd state o, as check_abelian prints it."""
    o = next(s for s in aut.states if aut.output(s, 0) == 1)
    d = {aut.residual(o, 1): 1}
    d[aut.residual(o, 0)] = d.get(aut.residual(o, 0), 0) - 1
    return format_combination(d)


@pytest.mark.parametrize("name", ["o61", "o823", "o227"])
def test_check_decides_orbit_machines_by_the_fit(name, capsys, tmp_path, monkeypatch):
    """check prints the closures' verdict and gamma, and the only identity
    tests that run are the even states' (one each): no odd-state comparison
    and no gamma closure.  check_abelian runs its closures for minutes on
    o823 and on the 227-state machine and reports both Unknown.  The
    construction alone decides: the fit that would certify it never runs."""
    aut = {"o61": lambda: _orbit_machine(CORPUS_GS[-2]),
           "o823": lambda: _orbit_machine((1, 1, 1, 2, 1)),
           "o227": machine_227}[name]()
    path = tmp_path / f"{name}.aut"
    path.write_text(aut.serialize())

    def no_fit(*args):
        raise AssertionError("check ran a fit")

    monkeypatch.setattr(complete, "_fit", no_fit)
    calls = []
    test = group._identity_test_coeffs
    monkeypatch.setattr(group, "_identity_test_coeffs",
                        lambda *args: calls.append(args[1]) or test(*args))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr() == (
        f"verdict: AbelianFreeCandidate\ngamma: {_closure_gamma_text(aut)}\n", "")
    assert len(calls) == sum(aut.output(s, 0) == 0 for s in aut.states)


def test_check_runs_no_construction_when_an_even_state_fails(capsys, tmp_path, monkeypatch,
                                                            lamplighter):
    calls = []
    monkeypatch.setattr(complete, "_construct", lambda aut: calls.append(aut))
    path = tmp_path / "lamplighter.aut"
    path.write_text(lamplighter.serialize())
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr() == (
        "verdict: NotAbelian\nwitness: beta\nreason: d1(beta) - d0(beta) = alpha - beta "
        "is not the identity (odd element along path '')\n", "")
    assert calls == []


def test_classify_runs_the_even_tests_then_the_construction_then_the_odd_closures(
        monkeypatch, a32, xyz, lamplighter):
    """The order `triage` needs: one refinement, which decides a Boolean
    machine with nothing after it; then the even states' tests, and one that
    fails stops classify before any construction; then the construction, and
    the odd states' closures only where it yields no chi."""
    events, refine = [], group._moore_classes
    test, construct = group._identity_test_coeffs, complete._construct
    monkeypatch.setattr(group, "_moore_classes",
                        lambda succ, out: events.append("refine") or refine(succ, out))
    monkeypatch.setattr(group, "_identity_test_coeffs",
                        lambda *args: events.append("test") or test(*args))
    monkeypatch.setattr(complete, "_construct",
                        lambda aut: events.append("construct") or construct(aut))
    rng = random.Random(27)
    kinds = Counter()
    for aut in [a32, xyz, lamplighter, union_machine()] + [
            random_machine(rng, rng.randint(2, 7)) for _ in range(600)]:
        events.clear()
        report = classify(aut)
        even = sum(aut.output(s, 0) == 0 for s in aut.states)
        if even == len(aut.states):
            assert events == [] and report.verdict is AbelianVerdict.TRIVIAL_GROUP
            continue
        assert events[0] == "refine"
        rest = events[1:]
        if report.verdict is AbelianVerdict.BOOLEAN_CANDIDATE:
            assert rest == []
            kinds["boolean"] += 1
            continue
        if report.verdict is AbelianVerdict.NOT_ABELIAN and aut.output(report.witness[0], 0) == 0:
            # an even state's test failed: it was the last event
            assert rest == ["test"] * len(rest) and 0 < len(rest) <= even
            kinds["even"] += 1
            continue
        assert rest[:even + 1] == ["test"] * even + ["construct"]
        assert "construct" not in rest[even + 1:]
        try:
            construct(aut)
        except (LocateError, MatrixError):
            assert rest[even + 1:] == ["test"] * len(rest[even + 1:])
            kinds["closures"] += len(rest) > even + 1
        else:
            assert rest[even + 1:] == []
            assert report.verdict is AbelianVerdict.ABELIAN_FREE_CANDIDATE
            kinds["constructed"] += 1
    assert min(kinds[k] for k in ("boolean", "even", "closures", "constructed")) > 10, kinds


def full_outcome(fn, *args, **kwargs):
    """What fn returns, or the class and message of the domain error it raises."""
    try:
        return fn(*args, **kwargs)
    except AbmealyError as exc:
        return type(exc), str(exc)


def test_locate_and_infer_agree_with_the_closure_gate(a32, xyz, lamplighter):
    """Wherever check_abelian decides, locate and infer_matrix return what
    they returned when check_abelian's closures alone decided a misfit, or
    raise the same class with the same message.  Each located machine is
    tried in its own matrix and in a mismatched contracting one, where the
    gate runs; random machines, mostly not abelian, in a random matrix."""
    rng = random.Random(20)
    mats = [companion_from_chi(chi) for chi in contracting_chis(max_dim=3)]
    located = [_random_located_machine(rng, mats, max_states=40) for _ in range(420)]
    cases = [(aut, own, DEFAULT_BOUND) for aut, own in located]
    cases += [(random_machine(rng, rng.randint(2, 7)), None, bound)
              for bound in (DEFAULT_BOUND, 20) for _ in range(200)]
    # check_abelian leaves the union Unknown at bound 3, and the case is skipped
    cases += [(union_machine(), None, 3)]
    cases += [(a32, companion_from_chi(CHI_A), DEFAULT_BOUND)]
    cases += [(aut, None, DEFAULT_BOUND) for aut in (xyz, lamplighter, union_machine())]
    kinds = Counter()
    for aut, own, bound in cases:
        if group.check_abelian(aut, bound).verdict is AbelianVerdict.UNKNOWN:
            kinds["unknown"] += 1
            continue
        kinds["own matrix"] += own is not None
        other = rng.choice([A for A in mats if A != own])
        for A in (own, other):
            if A is not None:
                want = full_outcome(closure_locate, aut, A, bound=bound)
                assert full_outcome(locate, aut, A, bound=bound) == want, aut.serialize()
                kinds["locate", want[0].__name__ if isinstance(want, tuple) else "map"] += 1
        want = full_outcome(closure_infer_matrix, aut, bound=bound)
        assert full_outcome(infer_matrix, aut, bound=bound) == want, aut.serialize()
        kinds["infer", want[0].__name__ if isinstance(want, tuple) else str(want)[:4]] += 1
    assert kinds["own matrix"] >= 400 and kinds["unknown"] > 0
    assert kinds["locate", "map"] > 200 and kinds["locate", "LocateError"] > 400
    assert kinds["locate", "NotAbelianError"] > 100 and kinds["infer", "NotAbelianError"] > 100
    assert kinds["infer", "Infe"] > 200 and kinds["infer", "None"] > 50
