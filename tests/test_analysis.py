"""Component decomposition, path polynomials, witness search, inference.

The witness machinery is tested semantically: a returned witness is decoded
back into a walk of the complete automaton and must physically carry the
unit vector to its negation."""

import random
import time
from fractions import Fraction

import pytest

from abmealy import analysis, complete, exactalg, group
from abmealy.analysis import (
    InferResult,
    SccDecomposition,
    check_scc_instance,
    infer_matrix,
    path_polynomial,
    scc_decompose,
    witness_search,
)
from abmealy.complete import (
    CompleteConfig,
    orbit,
    orbit_automaton,
    residual_vector,
    unit_vector,
)
from abmealy.errors import BoundExceededError, FormatError, MatrixError, NotAbelianError
from abmealy.exactalg import (
    HALF,
    IntPolynomial,
    RationalMatrix,
    RationalPolynomial,
    companion_from_chi,
    reduce_mod,
)

from conftest import (
    CORPUS_TO_1179,
    conjugate,
    contracting_chis,
    division_carries,
    random_half_integral,
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
            for v, (step0, step1) in complete._walk(config, [start], group.DEFAULT_BOUND):
                graph[v] = (step0[0], step1[0])
    assert check_scc_instance(A).decomposition == scc_decompose(graph)


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


def test_infer_matrix_classifies_the_machine_once(a32, monkeypatch):
    calls = {"check_abelian": 0, "locate": 0, "char_poly": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(group, "check_abelian", counted("check_abelian", group.check_abelian))
    monkeypatch.setattr(analysis, "locate", counted("locate", analysis.locate))
    char_poly = counted("char_poly", exactalg.char_poly)
    for module in (exactalg, complete, analysis, group):
        if hasattr(module, "char_poly"):
            monkeypatch.setattr(module, "char_poly", char_poly)
    group._require_abelian_free.cache_clear()
    assert infer_matrix(a32, max_dim=2) is not None
    assert calls["locate"] > 1
    assert calls["check_abelian"] == 1
    # each candidate matrix's chi is computed at most once
    assert calls["char_poly"] <= calls["locate"]


def test_infer_matrix_exhaustion(a32):
    assert infer_matrix(a32, max_dim=1) is None
    assert infer_matrix(a32, max_dim=2, coeff_bound=1) is None


def test_infer_matrix_requires_abelian_free(lamplighter, xyz):
    with pytest.raises(NotAbelianError):
        infer_matrix(lamplighter, max_dim=1)
    with pytest.raises(NotAbelianError):
        infer_matrix(xyz, max_dim=1)


def test_infer_matrix_budget_on_the_candidate_box(a32):
    # sum over m <= 3 of 2 * 5^(m - 1) = 2 + 10 + 50 = 62 polynomials
    assert infer_matrix(a32, bound=62) is not None
    with pytest.raises(BoundExceededError, match=(
            r"^infer candidate box reached 62 candidate polynomials by "
            r"dimension 3, over the bound 61; lower the dimension or the "
            r"coefficient bound$")):
        infer_matrix(a32, bound=61)
    with pytest.raises(BoundExceededError, match="275122 candidate polynomials by dimension 5"):
        infer_matrix(a32, max_dim=9, coeff_bound=9)


def _orbit_machine(g):
    A = companion_from_chi(RationalPolynomial([Fraction(c, 2) for c in g] + [1]))
    e1 = unit_vector(A.dim)
    return orbit_automaton(CompleteConfig(A, e1), [e1])


# Both chi of each corpus size class o7-o31, as g in chi = x^m + g(x)/2, with
# the chi that `infer` places the orbit machine in at its default bounds.
ORBIT_INFER = {
    (1, 2): "1/2 + x + x^2",
    (1, -2): "1/2 - x + x^2",
    (1, 1, 1, 1): None,
    (1, -1, 1, -1): None,
    (1, 0, -2): None,
    (-1, 0, 2): "-1/2 + x^2 + x^3",
    (1, 0, 1, -1): None,
    (1, 0, 1, 1): None,
    (1, 0, -1, -1): None,
    (1, 0, -1, 1): None,
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
