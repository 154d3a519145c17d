"""Complete automata over integer lattices, location maps, embeddings, and
the limit group of vector/polynomial fractions.

Worked values for the two-dimensional matrix [[-1, 1], [-1/2, 0]] are pinned
throughout: its inverse is [[0, -2], [1, -2]], its characteristic polynomial
is x^2 + x + 1/2, and the three-state machine locates in c(A, (3,2))."""

import random
from collections import Counter
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest

from abmealy import analysis, complete, group
from abmealy.analysis import check_scc_instance
from abmealy.cli import main
from abmealy.complete import (
    _horner,
    _shortest_cycle,
    _step,
    _walk_kernel,
    CompleteConfig,
    GTildeElement,
    LocationMap,
    Mismatch,
    embed_scale,
    find_location_mismatch,
    format_vector,
    gtilde_add,
    gtilde_eq,
    gtilde_neg,
    gtilde_residual,
    locate,
    orbit,
    orbit_automaton,
    parse_int_poly,
    parse_vector,
    poly_action,
    poly_to_vector,
    transduce_vector,
    residual_vector,
    unit_vector,
    vector_label,
    vector_to_poly,
)
from abmealy.errors import (
    AbmealyError,
    BoundExceededError,
    FormatError,
    LocateError,
    MatrixError,
    NotAbelianError,
    NotDivisibleError,
    NotInvertibleError,
)
from abmealy.exactalg import (
    HALF,
    HalfIntegralMatrix,
    IntPolynomial,
    RationalPolynomial,
    chi_star,
    char_poly,
    companion_from_chi,
    parse_matrix,
    reduce_mod,
    serialize_matrix,
)
from abmealy.mealy import MealyAutomaton, Parity, find_isomorphism

import conftest
from conftest import (
    CORPUS_GS,
    CORPUS_GS_ALL,
    CORPUS_TO_1179,
    conjugate,
    contracting_chis,
    cycle_quotient,
    cycle_solution_by_powers,
    cycle_words,
    fraction_matrix,
    fuzz_texts,
    is_int_literal,
    random_half_integral,
    reference_locate,
    reference_parse_int_poly,
    reference_parse_vector,
    reference_table,
    reference_walk,
    self_reachable,
    sigma,
    transduction_agrees,
    union_machine,
    unit_config,
    verify_location,
)

CHI_STAR_A = IntPolynomial.of(2, 2, 1)

A32_ORBIT = [(1, 0), (0, 0), (-2, -1), (1, 1), (-1, -1), (-1, 0), (2, 1)]


def all_words(n):
    for length in range(n + 1):
        for i in range(1 << length):
            yield format(i, f"0{length}b") if length else ""


# -- vectors -------------------------------------------------------------------


def test_vector_helpers():
    assert format_vector((3, 2)) == "(3,2)"
    assert format_vector((-2, -1)) == "(-2,-1)"
    assert parse_vector("(3,2)") == (3, 2)
    assert parse_vector("3,2") == (3, 2)
    assert parse_vector("3 2") == (3, 2)
    assert parse_vector(" ( -2 , -1 ) ") == (-2, -1)
    assert vector_label((3, 2)) == "3_2"
    assert vector_label((-2, -1)) == "-2_-1"
    assert unit_vector(3) == (1, 0, 0)
    for bad in ("", "()", "(a,b)", "1;2", "(1,,2)", "1,2,", ",1", "(1, ,2)"):
        with pytest.raises(FormatError):
            parse_vector(bad)
    with pytest.raises(MatrixError):
        unit_vector(0)


def test_non_integer_vectors_are_refused_not_truncated(mat_a):
    with pytest.raises(MatrixError, match=r"^vector \(3/2,0\) has non-integer entry 3/2$"):
        CompleteConfig(mat_a, (Fraction(3, 2), 0))
    cfg = CompleteConfig(mat_a, (1, 0))
    with pytest.raises(MatrixError, match=r"^vector \(1.9,1/2\) has non-integer entry 1.9$"):
        residual_vector(cfg, (1.9, Fraction(1, 2)), 0)
    with pytest.raises(MatrixError, match="non-integer entry 1/2"):
        orbit(cfg, (Fraction(1, 2), 0))
    with pytest.raises(MatrixError, match="non-integer entry 7/2"):
        LocationMap(p=IntPolynomial.of(3, 2), e=(Fraction(7, 2), 2), assignment={})
    with pytest.raises(MatrixError, match="non-integer entry -1/2"):
        LocationMap(p=IntPolynomial.of(1), e=(1, 0), assignment={"f": (1, Fraction(-1, 2))})
    with pytest.raises(MatrixError, match="non-integer entry 0.5"):
        GTildeElement((0.5, 0), IntPolynomial.of(1))
    assert format_vector((Fraction(1, 2), 2.7)) == "(1/2,2.7)"
    assert vector_label((Fraction(1, 2), -3)) == "1/2_-3"
    # integral values of other types are taken, as ints
    cfg = CompleteConfig(mat_a, (Fraction(3), 2.0))
    assert cfg.e == (3, 2) and all(type(x) is int for x in cfg.e)
    assert residual_vector(cfg, [Fraction(1), 0], 0) == ((0, 1), 1)


# -- configurations --------------------------------------------------------------


def test_config_validation(mat_a):
    cfg = CompleteConfig(mat_a, (3, 2))
    assert cfg.dim == 2 and cfg.e == (3, 2)
    with pytest.raises(MatrixError, match="odd"):
        CompleteConfig(mat_a, (2, 1))
    with pytest.raises(MatrixError, match="length"):
        CompleteConfig(mat_a, (1, 0, 0))
    # any half-integral matrix makes a configuration and steps; only the
    # orbit walks, which need not end, refuse a non-contracting one
    bad = companion_from_chi(RationalPolynomial.of(HALF, Fraction(-3, 2), 1))
    loose = CompleteConfig(bad, (1, 0))
    assert residual_vector(loose, (1, 0), 1) == ((3, -1), 0)  # A (2, 0)
    for walk in (lambda: orbit(loose, (1, 0)),
                 lambda: orbit_automaton(loose, [(1, 0)])):
        with pytest.raises(MatrixError,
                           match=r"^characteristic polynomial 1/2 - 3/2x \+ x\^2 "
                                 "is not contracting$"):
            walk()


def test_configs_from_equal_matrices_are_equal():
    rows = [[Fraction(-1), Fraction(1)], [Fraction(-1, 2), Fraction(0)]]
    a, b = HalfIntegralMatrix(rows), HalfIntegralMatrix([list(r) for r in rows])
    assert a is not b and a == b
    ca, cb = CompleteConfig(a, (3, 2)), CompleteConfig(b, [3, 2])
    assert ca == cb and hash(ca) == hash(cb)
    assert {ca: 1}[cb] == 1
    assert repr(ca) == f"CompleteConfig(A={a!r}, e=(3, 2))"


def test_residual_vector_pinned(mat_a):
    c32 = CompleteConfig(mat_a, (3, 2))
    assert residual_vector(c32, (1, 0), 0) == ((0, 1), 1)
    assert residual_vector(c32, (1, 0), 1) == ((-2, -2), 0)
    assert residual_vector(c32, (0, 1), 0) == ((1, 0), 0)
    assert residual_vector(c32, (0, 1), 1) == ((1, 0), 1)
    c1 = CompleteConfig(mat_a, (1, 0))
    assert residual_vector(c1, (1, 0), 1) == ((-2, -1), 0)  # the gamma vector
    with pytest.raises(ValueError):
        residual_vector(c1, (1, 0), 2)
    with pytest.raises(MatrixError):
        residual_vector(c1, (1, 0, 0), 0)


def reference_step(config, v, bit):
    """One step of c(A, e) computed with the Fraction matrix A itself."""
    if v[0] % 2 == 0:
        w, out = v, bit
    else:
        sign = 1 if bit else -1
        w, out = tuple(x + sign * c for x, c in zip(v, config.e)), 1 - bit
    image = fraction_matrix(config.A) @ np.array(w, dtype=object)
    assert all(x.denominator == 1 for x in image)
    return tuple(int(x) for x in image), out


# both chi of the corpus orbit classes of 7, 21 and 61 states
ORBIT_CLASS_GS = [(1, 2), (1, -2), (1, 1, 1, 1), (1, -1, 1, -1), (1, -2, 3, -3), (1, 2, 3, 3)]


@pytest.mark.parametrize("g", [None] + ORBIT_CLASS_GS)
def test_residual_vector_matches_the_fraction_reference(g, mat_a):
    cfg = CompleteConfig(mat_a, (1, 0)) if g is None else unit_config(g)
    e1 = unit_vector(cfg.dim)
    vectors = set(orbit(cfg, e1)) | set(orbit(cfg, tuple(-c for c in e1)))
    assert len(vectors) > 5
    for v in vectors:
        for bit in (0, 1):
            assert residual_vector(cfg, v, bit) == reference_step(cfg, v, bit)


@pytest.mark.parametrize("g", [None] + ORBIT_CLASS_GS)
def test_inv_rows_is_the_integral_inverse(g, mat_a):
    A = mat_a if g is None else unit_config(g).A
    inverse = fraction_matrix(A, -1)
    assert A.inv_rows == tuple(tuple(int(x) for x in row) for row in inverse)
    assert all(type(x) is int for row in A.inv_rows for x in row)
    assert (fraction_matrix(A) @ fraction_matrix(A.inv_rows) == fraction_matrix(A, 0)).all()


def test_transduce_vector_tracks_located_states(a32, mat_a):
    c32 = CompleteConfig(mat_a, (3, 2))
    for state, v in (("f", (1, 0)), ("f0", (0, 1)), ("f1", (-2, -2))):
        for w in all_words(6):
            assert transduce_vector(c32, v, w) == a32.transduce(state, w)
    with pytest.raises(FormatError, match="got '2'"):
        transduce_vector(c32, (1, 0), "012")
    with pytest.raises(FormatError, match="got 'a'"):
        transduce_vector(c32, (1, 0), "0a2")


def test_orbit_pinned(mat_a):
    c1 = CompleteConfig(mat_a, (1, 0))
    assert orbit(c1, (1, 0)) == A32_ORBIT
    c32 = CompleteConfig(mat_a, (3, 2))
    assert orbit(c32, (1, 0)) == [(1, 0), (0, 1), (-2, -2)]
    with pytest.raises(BoundExceededError):
        orbit(c1, (1, 0), bound=3)


def test_orbit_automaton_is_principal(mat_a, principal_figure):
    cfg = CompleteConfig(mat_a, (1, 1))
    machine = orbit_automaton(cfg, [(1, 1)])
    assert machine.name == "orbit_1_1"
    iso = find_isomorphism(principal_figure, machine)
    assert iso == {
        "I": "0_0",
        "f-f0": "1_0",
        "f-f1": "1_1",
        "f0-f": "-1_0",
        "f0-f1": "0_1",
        "f1-f": "-1_-1",
        "f1-f0": "0_-1",
    }
    named = orbit_automaton(cfg, [(1, 1)], name="other")
    assert named.name == "other"
    assert named.transitions == machine.transitions
    with pytest.raises(MatrixError):
        orbit_automaton(cfg, [])
    with pytest.raises(BoundExceededError):
        orbit_automaton(cfg, [(1, 1)], bound=2)


# -- the companion-form step and the generic step -------------------------------------

def test_random_half_integral_needs_two_dimensions():
    rng = random.Random(0)
    for m in (0, 1):
        with pytest.raises(ValueError, match="is a companion"):
            random_half_integral(rng, m)
    A = random_half_integral(rng, 2)
    assert A.dim == 2 and A != companion_from_chi(A.chi)


def generic_step(config, v, bit):
    """The step by the rows of 2A, as every matrix took it before the companion form."""
    if v[0] % 2 == 0:
        w, out = v, bit
    else:
        sign = 1 if bit else -1
        w, out = tuple(x + sign * c for x, c in zip(v, config.e)), 1 - bit
    return tuple(sum(a * x for a, x in zip(row, w)) // 2 for row in config.A.rows2), out


def oracle_orbit_text(config, starts):
    """AUT text of the orbit machine, by a plain breadth-first walk on `generic_step`,
    one `str(int(c))` label per vector."""
    label, queue, lines = {}, [], {}
    for s in starts:
        if s not in label:
            label[s] = "_".join(str(int(c)) for c in s)
            queue.append(s)
    for v in queue:  # grows while it is read
        for bit in (0, 1):
            w, out = generic_step(config, v, bit)
            if w not in label:
                label[w] = "_".join(str(int(c)) for c in w)
                queue.append(w)
            lines[label[v], bit] = f"trans {label[v]} {bit} {out} {label[w]}"
    states = sorted(label.values())
    return "\n".join([f"aut orbit_{label[starts[0]]}", "states " + " ".join(states)]
                     + [lines[s, bit] for s in states for bit in (0, 1)]) + "\n"


@pytest.mark.parametrize("g", CORPUS_TO_1179)
def test_corpus_matrices_take_the_companion_step(g):
    cfg = unit_config(g)
    parsed = parse_matrix(serialize_matrix(cfg.A))
    c = tuple(-2 * x for x in reversed(cfg.A.chi.coeffs[:-1]))
    assert cfg.A.companion == parsed.companion == c
    assert all(type(x) is int for x in cfg.A.companion)


@pytest.mark.parametrize("g", CORPUS_TO_1179 + [(1, -1, 0, 1, 0, 0)])  # and one of o23555
def test_orbit_automaton_matches_the_generic_walk_on_the_corpus(g):
    cfg = unit_config(g)
    e1 = unit_vector(cfg.dim)
    for starts in ([e1], [e1, tuple(-c for c in e1)]):
        assert orbit_automaton(cfg, starts).serialize() == oracle_orbit_text(cfg, starts)


def test_which_matrices_take_the_companion_step(mat_a):
    assert mat_a.companion == (-2, -1)
    assert companion_from_chi(RationalPolynomial.of(HALF, 1)).companion == (-1,)
    near = [
        [[-1, -1], [Fraction(-1, 2), 0]],                   # -1 on the superdiagonal
        [[HALF, 0], [HALF, 1]],                             # 0 on the superdiagonal
        [[-1, 1], [Fraction(-1, 2), 1]],                    # one extra nonzero entry
        [[HALF, 1, 0], [0, 0, 1], [HALF, 0, 1]],             # and in dimension 3
    ]
    rng = random.Random(3)
    for rows in near:
        A = HalfIntegralMatrix(rows)
        assert A.companion is None, rows
        cfg = CompleteConfig(A, (1,) + (0,) * (A.dim - 1))
        for _ in range(200):
            v = tuple(rng.randint(-9, 9) for _ in range(A.dim))
            for bit in (0, 1):
                assert residual_vector(cfg, v, bit) == reference_step(cfg, v, bit)


def test_generic_step_matches_the_fraction_reference_on_random_matrices():
    rng = random.Random(9)
    for m in (1, 2, 3, 4):
        for _ in range(12):
            if m == 1:  # every 1 x 1 matrix has the companion shape
                A = HalfIntegralMatrix([[Fraction(rng.choice((-1, 1)), 2)]])
                assert A.companion is not None
            else:
                A = random_half_integral(rng, m)
                assert A.companion is None
            e = (rng.randrange(-5, 6, 2),) + tuple(rng.randint(-5, 5) for _ in range(m - 1))
            cfg = CompleteConfig(A, e)
            for _ in range(40):
                v = tuple(rng.randint(-20, 20) for _ in range(m))
                for bit in (0, 1):
                    assert residual_vector(cfg, v, bit) == reference_step(cfg, v, bit)


@pytest.mark.parametrize("g", [(1, 1, 1, 1), (1, 0, -2), (1, 0, 1, -1), (1, 2, 3, 3),
                               (1, 1, 1, 2, 1)])
def test_orbit_and_scc_on_non_companion_conjugates(g):
    cfg = unit_config(g)
    e1 = unit_vector(cfg.dim)
    B, P = conjugate(cfg.A, random.Random(len(g) + g[-1]))
    assert B.companion is None and B.chi == cfg.A.chi
    image = [tuple(int(x) for x in fraction_matrix(P) @ np.array(v, dtype=object))
             for v in orbit(cfg, e1)]
    assert orbit(CompleteConfig(B, e1), e1) == image
    want, got = check_scc_instance(cfg.A), check_scc_instance(B)
    assert len(got.states) == len(want.states)
    assert sorted(map(len, got.decomposition.components)) == sorted(
        map(len, want.decomposition.components))
    assert got.single_nontrivial == want.single_nontrivial


# -- the generated walk kernel of c(A, e) ----------------------------------------------


def assert_kernel_matches_the_step(config, vectors):
    """The kernel, run from the vectors as starts until every start is stepped
    (each stepped vector discovers at most two), indexes `_step`'s successor
    of every vector it steps on inputs 0 and 1, as a tuple of ints; the
    matrix need not be contracting."""
    order = list(dict.fromkeys(vectors))
    k = len(order)
    succ = _walk_kernel(config)(order, 3 * k)
    assert 2 * k <= len(succ) <= 2 * len(order) and len(succ) % 2 == 0
    for i, v in enumerate(order[:len(succ) // 2]):
        for bit in (0, 1):
            assert order[succ[2 * i + bit]] == _step(config, v, bit)[0], (config, v, bit)
    assert all(type(x) is int for u in order for x in u)


def walk_or_error(walk, config, starts, bound):
    """walk(config, starts, bound), or the text of its BoundExceededError."""
    try:
        return walk(config, starts, bound)
    except BoundExceededError as exc:
        return str(exc)


def assert_walk_matches_the_reference(config, starts):
    """`_walk` against `reference_walk`: order, successor indices and the
    BoundExceededError text at bounds n - 1, n and n/3; `orbit_automaton`'s
    table, in its `states` order, against the sorted `reference_table`."""
    want = reference_walk(config, starts)
    n = len(want[0])
    assert complete._walk(config, starts, group.DEFAULT_BOUND) == want
    for bound in (n - 1, n, n // 3):
        got = walk_or_error(complete._walk, config, starts, bound)
        assert got == walk_or_error(reference_walk, config, starts, bound)
        if bound < n:  # the count is one past the bound, or past the starts
            assert got.startswith(f"orbit reached {max(bound, len(set(starts))) + 1} vectors, "
                                  f"over the bound {bound};")
    table = orbit_automaton(config, starts).transitions
    assert list(table.items()) == sorted(reference_table(config, starts))
    assert all(type(b) is int for key, value in table.items() for b in (key[1], value[1]))


def random_odd_e(rng, m, size):
    """A translation vector with an odd first entry, and zero, negative and large ones."""
    def entry():
        return rng.choice((0, 0, rng.randint(-size, size), -rng.randint(1, size)))
    return (rng.randint(-size, size) | 1,) + tuple(entry() for _ in range(m - 1))


def sheared(A, rng, size):
    """P A P^-1 for shears P = I + t E_ij until 2A has an entry beyond size: same
    chi, and the half-integral shape is kept (t is even when i = 0, so that
    column j stays integral).  Never a companion matrix."""
    m, rows = A.dim, [list(row) for row in A.rows]
    while max(abs(2 * x) for row in rows for x in row) <= size or (
            HalfIntegralMatrix(rows).companion is not None):
        i, j = rng.sample(range(m), 2)
        t = rng.choice((-1, 1)) * rng.randint(1, 64) * (2 if i == 0 else 1)
        rows[i] = [a + t * b for a, b in zip(rows[i], rows[j])]  # P A
        for row in rows:  # (P A) P^-1
            row[j] -= t * row[i]
    B = HalfIntegralMatrix(rows)
    assert B.chi == A.chi and B.dim == m
    return B


@pytest.mark.parametrize("g", CORPUS_GS_ALL)
def test_successor_kernel_matches_the_step_on_the_corpus(g):
    cfg = unit_config(g)
    m, rng = cfg.dim, random.Random(sum(g) + 10 * len(g))
    box = list(product(range(-2, 3), repeat=m))
    for e in (cfg.e, random_odd_e(rng, m, 2 ** 70), random_odd_e(rng, m, 5)):
        assert_kernel_matches_the_step(CompleteConfig(cfg.A, e), box)
    assert_kernel_matches_the_step(cfg, orbit(cfg, unit_vector(m)))


def test_successor_kernel_matches_the_step_on_random_matrices():
    rng = random.Random(22)
    for m in range(2, 7):
        for _ in range(6):
            A = random_half_integral(rng, m)  # entries +-1 and 0 as well as large ones
            for A in (A, sheared(A, rng, 2 ** 64)):
                cfg = CompleteConfig(A, random_odd_e(rng, m, 2 ** 70))
                big = [tuple(rng.randint(-2 ** 70, 2 ** 70) for _ in range(m)) for _ in range(40)]
                vectors = [*product(range(-1, 2), repeat=m), *big]
                vectors += [_step(cfg, v, 0)[0] for v in vectors]
                assert_kernel_matches_the_step(cfg, vectors)
    # whole walks from e, on contracting non-companion matrices: corpus
    # companions conjugated by unimodular changes of basis, with e1 and a
    # random e, and sheared past 2^64
    for g in CORPUS_GS:
        A, e1 = unit_config(g).A, unit_vector(len(g))
        cases = [(sheared(A, rng, 2 ** 64), e1)]
        if len(g) > 2:
            B = conjugate(A, rng)[0]
            cases += [(B, e1), (B, random_odd_e(rng, B.dim, 3))]
        for B, e in cases:
            assert B.companion is None and B.contracting
            assert_walk_matches_the_reference(CompleteConfig(B, e), [e])


def test_successor_kernel_in_dimension_one():
    # the kernel unpacks and builds one-tuples, (v0,) in order and (w0,)
    for half in (HALF, -HALF):
        A = HalfIntegralMatrix([[half]])
        for e in ((1,), (-1,), (3,), (-7,), (2 ** 70 + 1,)):
            cfg = CompleteConfig(A, e)
            vectors = [(x,) for x in range(-40, 41)] + [(2 ** 70,), (-2 ** 70 - 1,)]
            assert_kernel_matches_the_step(cfg, vectors)
            assert_walk_matches_the_reference(cfg, [e])
            assert orbit_automaton(cfg, [e]).serialize() == oracle_orbit_text(cfg, [e])


@pytest.mark.parametrize("g", CORPUS_GS_ALL)
def test_walk_is_unchanged_by_the_kernel_on_the_corpus(g):
    # order, indices, tables and BoundExceededError text, also at the bounds n - 1, n and n/3
    cfg = unit_config(g)
    e1 = unit_vector(cfg.dim)
    assert_walk_matches_the_reference(cfg, [e1])
    n, neg = len(orbit(cfg, e1)), [tuple(-c for c in e1)]
    assert walk_or_error(complete._walk, cfg, neg, n) == walk_or_error(reference_walk, cfg, neg, n)


def test_orbit_automaton_starts(mat_a):
    """Several starts, repeated ones, ones inside another's orbit and even
    ones, against the reference walk; the machine is named after the first."""
    o823 = unit_config((1, 1, 1, 2, 1))
    e1, neg, zero = unit_vector(5), (-1, 0, 0, 0, 0), (0,) * 5
    inside = orbit(o823, e1)[100]
    assert zero in orbit(o823, e1) and orbit(o823, zero) == [zero]
    cases = [(CompleteConfig(mat_a, (3, 2)), [(1, 0), (5, -3), (0, 0)]),
             (CompleteConfig(mat_a, (3, 2)), [(4, 2)]),
             (CompleteConfig(mat_a, (1, 1)), [(2, -2), (1, 1), (2, -2), (1, 1)]),
             (o823, [e1, neg]), (o823, [e1, e1, e1]), (o823, [inside, e1]), (o823, [e1, inside]),
             (o823, [zero, e1]), (o823, [e1, zero]), (o823, [(2, 0, 0, 0, 0), e1]),
             (o823, [neg, inside, neg])]
    for cfg, starts in cases:
        assert_walk_matches_the_reference(cfg, starts)
        order = complete._walk(cfg, starts, group.DEFAULT_BOUND)[0]
        assert order[:len(set(starts))] == list(dict.fromkeys(starts))
        machine = orbit_automaton(cfg, starts)
        assert machine.name == "orbit_" + vector_label(starts[0])
        assert set(machine.states) == {vector_label(v) for v in order}
    assert orbit(CompleteConfig(mat_a, (3, 2)), (4, 2))[0] == (4, 2)


@pytest.mark.parametrize("g", CORPUS_TO_1179)
def test_orbit_scc_and_principal_output_is_unchanged_by_the_kernel(g, tmp_path, capsys,
                                                                   monkeypatch):
    cfg = unit_config(g)
    n = len(orbit(cfg, cfg.e))
    chi = " ".join(str(Fraction(c, 2)) for c in g) + " 1"
    mat = tmp_path / "A.mat"
    mat.write_text(f"chi {chi}\n")
    commands = (["orbit", str(mat), "--e", " ".join(map(str, cfg.e))], ["scc", str(mat)],
                ["principal", "--chi", chi])
    bounds = ([], *(["--bound", str(b)] for b in (n - 1, n, n // 3)))
    argvs = [[*c, *b, *f] for c in commands for b in bounds for f in ([], ["--json"])]

    def outputs():
        return [(main(argv), *capsys.readouterr()) for argv in argvs]

    got = outputs()
    assert sum(code == 1 for code, _, _ in got) >= 8  # n - 1 and n/3 fail orbit and principal
    monkeypatch.setattr(complete, "_walk", reference_walk)
    monkeypatch.setattr(analysis, "_walk", reference_walk)
    assert outputs() == got


# -- polynomial coordinates ---------------------------------------------------------


def test_poly_vector_correspondence(mat_a):
    assert poly_to_vector(IntPolynomial.of(3, 2), mat_a) == (3, 2)
    assert poly_to_vector(IntPolynomial.of(1), mat_a) == (1, 0)
    assert poly_to_vector(IntPolynomial.of(0, 1), mat_a) == (0, 1)
    assert poly_to_vector(IntPolynomial.of(0, 0, 1), mat_a) == (-2, -2)
    assert poly_to_vector(IntPolynomial.of(1, 1), mat_a) == (1, 1)
    assert vector_to_poly((3, 2), mat_a) == IntPolynomial.of(3, 2)
    assert vector_to_poly((0, 0), mat_a) == IntPolynomial()


def test_poly_action_module_laws(mat_a):
    rng = random.Random(11)
    b = companion_from_chi(RationalPolynomial.of(HALF, 0, 0, 1))
    for A in (mat_a, b):
        m = A.dim
        for _ in range(20):
            p = IntPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))])
            q = IntPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))])
            v = tuple(rng.randint(-5, 5) for _ in range(m))
            w = tuple(rng.randint(-5, 5) for _ in range(m))
            assert poly_action(p + q, v, A) == tuple(
                a + b2 for a, b2 in zip(poly_action(p, v, A), poly_action(q, v, A))
            )
            assert poly_action(p * q, v, A) == poly_action(p, poly_action(q, v, A), A)
            assert poly_action(IntPolynomial.of(1), v, A) == v
            assert poly_action(p, tuple(x + y for x, y in zip(v, w)), A) == tuple(
                a + b2 for a, b2 in zip(poly_action(p, v, A), poly_action(p, w, A))
            )
            # the action factors through chi*
            star = chi_star(char_poly(A))
            assert poly_action(p, v, A) == poly_action(reduce_mod(p, star), v, A)


def test_vector_to_poly_round_trip(mat_a):
    rng = random.Random(13)
    for _ in range(30):
        p = IntPolynomial([rng.randint(-6, 6) for _ in range(rng.randint(0, 5))])
        v = poly_to_vector(p, mat_a)
        assert vector_to_poly(v, mat_a) == reduce_mod(p, CHI_STAR_A)


def test_vector_to_poly_non_integral():
    A = HalfIntegralMatrix([[1, 1], [Fraction(-3, 2), -1]])
    assert poly_to_vector(IntPolynomial.of(0, 1), A) == (-2, 3)
    with pytest.raises(MatrixError, match="not an integer polynomial multiple"):
        vector_to_poly((0, 1), A)


def test_vector_to_poly_reducible_guard():
    # chi = (x - 1/2)(x - 1) is reducible, but e1 is cyclic for a companion
    # matrix, so the name of every vector is still unique
    A = companion_from_chi(RationalPolynomial.of(HALF, Fraction(-3, 2), 1))
    assert vector_to_poly((5, 7), A) == IntPolynomial.of(5, 7)
    assert poly_to_vector(IntPolynomial.of(5, 7), A) == (5, 7)


def test_vector_to_poly_dependent_basis():
    A = HalfIntegralMatrix([[HALF, 0], [0, 1]])
    with pytest.raises(MatrixError, match="linearly dependent"):
        vector_to_poly((0, 1), A)


# -- polynomial parsing ----------------------------------------------------------


@pytest.mark.parametrize(
    "text, coeffs",
    [
        ("3 2", (3, 2)),
        ("-1 1", (-1, 1)),
        ("3 + 2x", (3, 2)),
        ("3+2x", (3, 2)),
        ("x^2 - 1", (-1, 0, 1)),
        ("-x", (0, -1)),
        ("2x^3", (0, 0, 0, 2)),
        ("0", ()),
        ("1 + x + x^2 + x^3 + x^4", (1, 1, 1, 1, 1)),
        ("x - x", ()),
        ("1 + x^4\n", (1, 0, 0, 0, 1)),
        ("1 +\tx^4", (1, 0, 0, 0, 1)),
        ("2 x^2", (0, 0, 2)),
        ("3 - 2 x", (3, -2)),
        ("1 x", (0, 1)),
        ("x ^ 2", (0, 0, 1)),
        ("1 2_0", (1, 20)),
    ],
)
def test_parse_int_poly(text, coeffs):
    assert parse_int_poly(text) == IntPolynomial(coeffs)


@pytest.mark.parametrize("text", ["", "  ", "3 +", "xx", "x^", "3/2", "y + 1", "x + \u00b2"])
def test_parse_int_poly_rejects(text):
    with pytest.raises(FormatError):
        parse_int_poly(text)


@pytest.mark.parametrize("text", ["3 2x", "x^1 2", "1 2 + x", "\u0663 2x", "x +1\t0",
                                  "1 _0", "1_ 0"])
def test_parse_int_poly_rejects_whitespace_between_digits(text):
    with pytest.raises(FormatError, match=r"^bad polynomial .*: whitespace between digits$"):
        parse_int_poly(text)


def constant_split_by_whitespace(text):
    """True when whitespace alone stands between two characters of a
    constant: decimal digits or the underscores int() reads between them."""
    marks = [(i, c) for i, c in enumerate(text) if not c.isspace()]
    return any(j > i + 1 and (a.isdecimal() or a == "_") and (b.isdecimal() or b == "_")
               for (i, a), (j, b) in zip(marks, marks[1:]))


def has_empty_entry(text):
    """True when the comma form of a vector has an entry that is blank."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    return "," in s and any(not part.strip() for part in s.split(","))


def differential(read, reference, texts, newly_rejected):
    """Run read and its reference on every text: read gives the reference's
    value, or raises FormatError where the reference did or on a newly
    rejected text, and never raises anything else.  Returns the count of
    texts read, rejected by both, and newly rejected."""
    counts = {"read": 0, "rejected": 0, "newly rejected": 0}
    for text in texts:
        try:
            want = reference(text)
        except FormatError:
            want = None
        try:
            got = read(text)
        except FormatError:
            if want is None:
                counts["rejected"] += 1
            else:
                assert newly_rejected(text), (text, want)
                counts["newly rejected"] += 1
        else:
            assert want is not None and got == want, (text, got, want)
            counts["read"] += 1
    return counts


def test_parse_int_poly_matches_the_reference_on_fuzz():
    def newly_rejected(text):
        toks = text.split()
        coefficient_list = toks and all(is_int_literal(t) for t in toks)
        return not coefficient_list and constant_split_by_whitespace(text)

    counts = differential(parse_int_poly, reference_parse_int_poly,
                          fuzz_texts(1, 20_000), newly_rejected)
    assert min(counts.values()) >= 100, counts


def test_parse_vector_matches_the_reference_on_fuzz():
    counts = differential(parse_vector, reference_parse_vector,
                          fuzz_texts(2, 20_000), has_empty_entry)
    assert min(counts.values()) >= 100, counts


# -- location maps ---------------------------------------------------------------


PINNED_A32_MAP = LocationMap(
    p=IntPolynomial.of(3, 2),
    e=(3, 2),
    assignment={"f": (1, 0), "f0": (0, 1), "f1": (-2, -2)},
)

A32_MAP_TEXT = """\
p: 3 + 2x
e: (3,2)
state f -> (1,0)
state f0 -> (0,1)
state f1 -> (-2,-2)
"""


def test_location_map_serialize_parse():
    assert PINNED_A32_MAP.serialize() == A32_MAP_TEXT
    assert LocationMap.parse(A32_MAP_TEXT) == PINNED_A32_MAP
    commented = "# note\np: 3 2\n\ne: 3 2\nstate f -> 1 0 # here\n"
    parsed = LocationMap.parse(commented)
    assert parsed.p == IntPolynomial.of(3, 2)
    assert parsed.e == (3, 2)
    assert parsed.assignment == {"f": (1, 0)}


@pytest.mark.parametrize(
    "text, needle",
    [
        ("e: (3,2)\n", "missing p line"),
        ("p: 1\n", "missing e line"),
        ("p: 1\np: 2\ne: (1,0)\n", "line 2: duplicate p line"),
        ("p: 1\ne: (1,0)\ne: (1,0)\n", "line 3: duplicate e line"),
        ("p: 1\ne: (1,0)\nstate f -> (1,0)\nstate f -> (1,0)\n", "duplicate state"),
        ("p: 1\ne: (1,0)\nstate f (1,0)\n", "expected 'state"),
        ("p: 1\ne: (1,0)\nstate -> (1,0)\n", "missing state label"),
        ("p: 1\ne: (1,0)\nstate f -> (a)\n", "line 3: bad integer vector"),
        ("p: zzz\ne: (1,0)\n", "line 1"),
        ("p: 1\ne: (1,0)\nwhat\n", "unrecognized line"),
    ],
)
def test_location_map_parse_errors(text, needle):
    with pytest.raises(FormatError) as exc:
        LocationMap.parse(text)
    assert needle in str(exc.value)


def test_location_map_validate(a32, mat_a):
    PINNED_A32_MAP.validate(a32, mat_a)  # no exception
    missing = LocationMap(p=(3, 2), e=(3, 2), assignment={"f": (1, 0)})
    with pytest.raises(LocateError, match="missing"):
        missing.validate(a32, mat_a)
    wrong_parity = LocationMap(
        p=(3, 2), e=(3, 2),
        assignment={"f": (2, 0), "f0": (0, 1), "f1": (-2, -2)},
    )
    with pytest.raises(LocateError, match="parity"):
        wrong_parity.validate(a32, mat_a)
    wrong_target = LocationMap(
        p=(3, 2), e=(3, 2),
        assignment={"f": (1, 0), "f0": (0, 3), "f1": (-2, -2)},
    )
    with pytest.raises(LocateError, match="moves to"):
        wrong_target.validate(a32, mat_a)
    wrong_length = LocationMap(
        p=(3, 2), e=(3, 2),
        assignment={"f": (1, 0, 0), "f0": (0, 1), "f1": (-2, -2)},
    )
    with pytest.raises(MatrixError, match="has length 3, need 2"):
        wrong_length.validate(a32, mat_a)
    # the length is checked before the parity reads the first entry
    empty = LocationMap(p=(3, 2), e=(3, 2), assignment={"f": (), "f0": (0, 1), "f1": (-2, -2)})
    with pytest.raises(MatrixError, match=r"vector \(\) has length 0, need 2"):
        empty.validate(a32, mat_a)


def test_location_map_validate_needs_an_invertible_machine(sink, mat_a):
    # the parity check raises before any output could be compared
    locmap = LocationMap(p=(1,), e=(1, 0), assignment={"a": (1, 0), "b": (0, 0)})
    with pytest.raises(NotInvertibleError):
        locmap.validate(sink, mat_a)


# -- locate ----------------------------------------------------------------------


def test_locate_pinned(a32, mat_a):
    locmap = locate(a32, mat_a)
    assert locmap == PINNED_A32_MAP
    locmap.validate(a32, mat_a)
    assert verify_location(a32, mat_a, locmap)


def test_locate_principal(principal_figure, mat_a):
    locmap = locate(principal_figure, mat_a)
    assert locmap.p == IntPolynomial.of(1, 1)
    assert locmap.e == (1, 1)
    assert locmap.assignment == {
        "I": (0, 0),
        "f-f0": (1, 0),
        "f-f1": (1, 1),
        "f0-f": (-1, 0),
        "f0-f1": (0, 1),
        "f1-f": (-1, -1),
        "f1-f0": (0, -1),
    }
    # the adjoined generator's class sits exactly on the translation vector
    assert locmap.assignment["f-f1"] == locmap.e
    assert verify_location(principal_figure, mat_a, locmap)


def test_locate_errors(a32, lamplighter, mat_a):
    with pytest.raises(NotAbelianError):
        locate(lamplighter, mat_a)
    non_contracting = companion_from_chi(RationalPolynomial.of(HALF, Fraction(-3, 2), 1))
    with pytest.raises(MatrixError, match="not contracting"):
        locate(a32, non_contracting)
    mismatched = companion_from_chi(RationalPolynomial.of(HALF, -1, 1))
    with pytest.raises(LocateError):
        locate(a32, mismatched)
    one_dim = companion_from_chi(RationalPolynomial.of(-HALF, 1))
    with pytest.raises(LocateError):
        locate(a32, one_dim)
    with pytest.raises(LocateError, match="not connected"):
        locate(union_machine(), mat_a)


def locate_outcome(fn, aut, A):
    """The map fn returns, or the class of the error it raises."""
    try:
        return fn(aut, A)
    except AbmealyError as exc:
        return type(exc)


def newly_placed(aut, A) -> tuple[object, bool]:
    """Compare locate with reference_locate, the oracle where it returns a
    map: locate must return that very map.  Where the reference raises,
    locate raises the same class or returns a map that the brute-force
    transduction oracle accepts on every word up to length 8.  Returns
    locate's outcome and whether it is such a new map."""
    want = locate_outcome(reference_locate, aut, A)
    got = locate_outcome(locate, aut, A)
    if isinstance(want, LocationMap) or not isinstance(got, LocationMap):
        assert got == want
        return got, False
    assert transduction_agrees(aut, A, got, 8)
    return got, True


# the 8 corpus machines that the division alone misfits in their own matrix
DIVISION_MISFITS = {(1, 1, 1, 1), (1, 0, -2), (1, 0, 1, -1), (1, 0, 1, 1), (1, 0, -1, -1),
                    (1, 0, -1, 1), (1, 0, 1, 0, 0, 0), (1, -2, 3, -3)}


@pytest.mark.parametrize("g", CORPUS_GS)
def test_locate_matches_the_reference_on_the_corpus(g):
    cfg = unit_config(g)
    aut = orbit_automaton(cfg, [unit_vector(cfg.dim)])
    rng = random.Random(str(g))
    mats = [cfg.A] + [companion_from_chi(chi) for chi in rng.sample(contracting_chis(), 3)]
    # only the own matrix places a machine newly, where the division misfits
    assert [newly_placed(aut, A)[1] for A in mats] == [g in DIVISION_MISFITS] + [False] * 3


def test_locate_matches_the_reference_on_random_orbit_machines():
    rng = random.Random(5)
    mats = [companion_from_chi(chi) for chi in contracting_chis()]
    machines = located = placed = 0
    while machines < 150:
        A = rng.choice(mats)
        e = (rng.choice((-1, 1)),) + tuple(rng.randint(-1, 1) for _ in range(A.dim - 1))
        start = tuple(rng.randint(-1, 1) for _ in range(A.dim))
        try:  # the reference classifies each machine first, which is slow on large ones
            aut = orbit_automaton(CompleteConfig(A, e), [start], bound=40)
        except BoundExceededError:
            continue
        machines += 1
        for B in [A] + rng.sample(mats, 3):
            got, new = newly_placed(aut, B)
            located += isinstance(got, LocationMap)
            placed += new
    assert located > 50 and placed > 20


def test_shortest_cycle_is_the_first_cycle_word():
    rng = random.Random(11)
    on_cycle = off_cycle = 0
    for _ in range(3000):
        labels = [f"s{i}" for i in range(rng.randint(1, 12))]
        aut = MealyAutomaton({(s, b): (rng.choice(labels), rng.randint(0, 1))
                              for s in labels for b in (0, 1)}, name="r")
        for s in aut.states:
            want = next(cycle_words(aut, s, 2 * len(labels) + 2), None)
            assert _shortest_cycle(aut, s) == want, (aut.serialize(), s)
            on_cycle += want is not None
            off_cycle += want is None
    assert on_cycle > 1000 and off_cycle > 1000


def test_locate_classifies_only_a_machine_that_does_not_fit(a32, lamplighter, mat_a,
                                                            monkeypatch):
    calls = []
    classify = complete.classify
    monkeypatch.setattr(complete, "classify",
                        lambda aut, **kw: calls.append(aut.name) or classify(aut, **kw))
    cfg = unit_config((1, 2, 3, 3))
    o61 = orbit_automaton(cfg, [unit_vector(4)])
    assert len(o61.states) == 61
    locate(o61, cfg.A).validate(o61, cfg.A)
    assert calls == []
    with pytest.raises(NotAbelianError):
        locate(lamplighter, mat_a)
    with pytest.raises(LocateError):
        locate(a32, companion_from_chi(RationalPolynomial.of(HALF, -1, 1)))
    assert calls == ["lamplighter", "a32"]


def test_a_misfit_of_a_machine_that_fits_elsewhere_runs_no_odd_phase_closure(monkeypatch):
    # o61 fits its own matrix, so its misfit in the mirror matrix is the
    # fit's LocateError after the even states' identity tests alone; the
    # odd-phase closures took 2 s here, and minutes on o823
    o61 = orbit_automaton(unit_config((1, 2, 3, 3)), [unit_vector(4)])
    mirror = unit_config((1, -2, 3, -3)).A
    with pytest.raises(LocateError) as fit:
        complete._fit(o61, mirror, complete._anchor_cycle(o61))
    calls = []
    test = group._identity_test_coeffs
    monkeypatch.setattr(group, "_identity_test_coeffs",
                        lambda *args: calls.append(args[1]) or test(*args))
    with pytest.raises(LocateError) as got:
        locate(o61, mirror)
    assert str(got.value) == str(fit.value)
    assert len(calls) == sum(o61.state_parity(s) is Parity.EVEN for s in o61.states)


def test_locate_places_every_corpus_machine_in_its_own_matrix(monkeypatch):
    # o7-o61, o823 and o1179, 12 of the 18 only by the rescaled anchor; a fit
    # needs no closure, so no identity test runs
    calls = []
    test = group._identity_test_coeffs
    monkeypatch.setattr(group, "_identity_test_coeffs",
                        lambda *args: calls.append(args[1]) or test(*args))
    for g in CORPUS_TO_1179:
        cfg = unit_config(g)
        aut = orbit_automaton(cfg, [unit_vector(cfg.dim)])
        locate(aut, cfg.A).validate(aut, cfg.A)
    assert calls == []


def test_fit_takes_the_division_frame_exactly_where_the_rational_quotient_is_integral():
    """`_fit` divides in Z[x]/chi* by `try_divide_mod`: the anchor sits at e1
    and p is the quotient wherever the rational one is integral, and the
    rescaled anchor and p = sigma_0 ((x^L - 1) mod chi*) are taken otherwise."""
    rng = random.Random(27)
    mats = [unit_config(g).A for g in CORPUS_TO_1179]
    while len(mats) < len(CORPUS_TO_1179) + 150:
        A = random_half_integral(rng, rng.choice((2, 3)))
        if A.contracting:
            mats.append(A)
    frames = Counter()
    for A in mats:
        e1 = unit_vector(A.dim)
        aut = orbit_automaton(CompleteConfig(A, e1), [e1])
        frame = complete._anchor_cycle(aut)
        _, anchor, sigmas = frame
        q = cycle_quotient(A, sigmas)
        located = complete._fit(aut, A, frame)
        if q.is_integral():
            assert (located.p, located.assignment[anchor]) == (q, e1)
        else:
            sign, cycle = sigmas[0], IntPolynomial([-1] + [0] * (len(sigmas) - 1) + [1])
            assert located.p == reduce_mod(sign * cycle, A.chi_star)
            assert located.assignment[anchor] == poly_to_vector(sign * IntPolynomial(sigmas), A)
        assert located.e == poly_to_vector(located.p, A)
        frames[q.is_integral()] += 1
    assert frames[True] > 20 and frames[False] > 20, frames


def ring_solution(A, sigmas):
    """e from the division in Q[x]/chi*, with Fraction entries when it is not integral."""
    q = cycle_quotient(A, sigmas)
    return None if q is None else tuple(map(Fraction, _horner(q.coeffs, unit_vector(A.dim),
                                                              A.inv_rows)))


@pytest.mark.parametrize("g", CORPUS_GS)
def test_cycle_division_matches_matrix_powers_on_the_corpus(g):
    cfg = unit_config(g)
    e1 = unit_vector(cfg.dim)
    aut = orbit_automaton(cfg, [e1])
    anchor = next(s for s in aut.states
                  if aut.state_parity(s) is Parity.ODD and self_reachable(aut, s))
    words = list(islice(cycle_words(aut, anchor, 2 * len(aut.states) + 2), 40))
    assert words
    for word in words:
        sigmas, state = [], anchor
        for ch in word:
            sigmas.append(sigma(aut.state_parity(state), int(ch)))
            state = aut.residual(state, int(ch))
        assert ring_solution(cfg.A, sigmas) == cycle_solution_by_powers(cfg.A, sigmas), word


def test_cycle_division_matches_matrix_powers_on_random_matrices():
    rng = random.Random(8)
    integral = fractional = 0
    for _ in range(150):
        A = random_half_integral(rng, rng.choice((2, 3)))
        sigmas = [rng.choice((-1, 1))] + [rng.randint(-1, 1) for _ in range(rng.randint(0, 7))]
        want = cycle_solution_by_powers(A, sigmas)
        assert ring_solution(A, sigmas) == want
        if want is not None:
            if cycle_quotient(A, sigmas).is_integral():
                integral += 1
            else:
                fractional += 1
    # both unimodular and non-unimodular bases e1, A^-1 e1, ... occur
    assert integral > 20 and fractional > 20
    # s = 1 - x vanishes at the eigenvalue 1 of A^-1 when chi = (x - 1/2)(x - 1)
    A = companion_from_chi(RationalPolynomial.of(HALF, Fraction(-3, 2), 1))
    assert ring_solution(A, [1, -1]) is None is cycle_solution_by_powers(A, [1, -1])


def test_every_locate_in_the_suite_checks_that_p_names_e(a32, mat_a):
    import abmealy
    from abmealy import analysis, cli, complete

    assert all(mod.locate is conftest.checked_locate
               for mod in (abmealy, analysis, cli, complete))
    assert locate is conftest.checked_locate
    before = conftest.checked_locate.checked
    locate(a32, mat_a)
    assert conftest.checked_locate.checked == before + 1


def test_locate_allows_duplicate_vectors(a32, mat_a):
    # a second odd state behaving exactly like f must land on f's vector
    trans = dict(a32.transitions)
    trans[("o", 0)] = ("f0", 1)
    trans[("o", 1)] = ("f1", 0)
    bigger = type(a32)(trans, name="a32_plus")
    locmap = locate(bigger, mat_a)
    assert locmap.assignment["o"] == locmap.assignment["f"] == (1, 0)
    assert verify_location(bigger, mat_a, locmap)


def test_validate_rejects_every_shift_the_brute_force_rejects(a32, mat_a):
    """Move one state's vector by +-1 in one coordinate: whenever some word
    up to length 6 tells the shifted map apart, validate must raise."""
    chi7 = RationalPolynomial.of(HALF, -1, 1)  # the o7 orbit machine's chi
    A7 = companion_from_chi(chi7)
    e1 = unit_vector(2)
    o7 = orbit_automaton(CompleteConfig(A7, e1), [e1])
    mismatches = 0
    for aut, A in ((a32, mat_a), (o7, A7)):
        locmap = locate(aut, A)
        locmap.validate(aut, A)
        assert verify_location(aut, A, locmap)
        for s in sorted(locmap.assignment):
            for i in range(A.dim):
                for delta in (-1, 1):
                    v = list(locmap.assignment[s])
                    v[i] += delta
                    shifted = LocationMap(
                        p=locmap.p, e=locmap.e,
                        assignment={**locmap.assignment, s: tuple(v)},
                    )
                    if verify_location(aut, A, shifted, max_len=6):
                        continue
                    mismatches += 1
                    with pytest.raises(LocateError):
                        shifted.validate(aut, A)
    assert mismatches == 2 * 2 * (3 + 7)


def test_find_location_mismatch(a32, mat_a):
    assert find_location_mismatch(a32, mat_a, PINNED_A32_MAP) is None
    corrupted = LocationMap(
        p=(3, 2), e=(3, 2),
        assignment={"f": (1, 0), "f0": (0, 3), "f1": (-2, -2)},
    )
    mm = find_location_mismatch(a32, mat_a, corrupted)
    assert isinstance(mm, Mismatch)
    assert mm.state == "f0"
    assert mm.automaton_output != mm.vector_output
    # the reported witness is honest on both sides
    assert a32.transduce(mm.state, mm.word) == mm.automaton_output
    cfg = CompleteConfig(mat_a, (3, 2))
    assert transduce_vector(cfg, (0, 3), mm.word) == mm.vector_output
    assert not verify_location(a32, mat_a, corrupted)
    incomplete = LocationMap(p=(3, 2), e=(3, 2), assignment={"f": (1, 0)})
    with pytest.raises(LocateError, match="missing"):
        find_location_mismatch(a32, mat_a, incomplete)


# -- embeddings -------------------------------------------------------------------


def test_embed_scale_pinned():
    p, q = IntPolynomial.of(3, 2), IntPolynomial.of(-1, 1)
    assert embed_scale(p, q, CHI_STAR_A) == IntPolynomial.of(1, 1)
    assert embed_scale(IntPolynomial.of(1), p, CHI_STAR_A) == p
    with pytest.raises(NotDivisibleError):
        embed_scale(p, IntPolynomial.of(1), CHI_STAR_A)


def _phi_commutes(A, p, r, v, words):
    """The scaling map v -> r(A^-1) v carries c(A, e_p) into c(A, e_q)."""
    star = chi_star(char_poly(A))
    q = reduce_mod(r * p, star)
    ep, eq = poly_to_vector(p, A), poly_to_vector(q, A)
    cfg_p = CompleteConfig(A, ep)
    cfg_q = CompleteConfig(A, eq)
    phi_v = poly_action(r, v, A)
    for word in words:
        if transduce_vector(cfg_p, v, word) != transduce_vector(cfg_q, phi_v, word):
            return False
        # stepwise: phi of the path endpoint matches the path of phi
        s, t = v, phi_v
        for ch in word:
            s, out_s = residual_vector(cfg_p, s, int(ch))
            t, out_t = residual_vector(cfg_q, t, int(ch))
            if out_s != out_t or poly_action(r, s, A) != t:
                return False
    return True


def test_scaling_embeds_complete_automata(mat_a):
    rng = random.Random(2024)
    B = companion_from_chi(RationalPolynomial.of(HALF, 0, 0, 1))
    words = ["0", "1", "01", "10", "110", "0101", "11100", "001011"]
    for A in (mat_a, B):
        m = A.dim
        for _ in range(20):
            p = IntPolynomial(
                [2 * rng.randint(-2, 2) + 1]
                + [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
            )
            r = IntPolynomial(
                [2 * rng.randint(-2, 2) + 1]
                + [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
            )
            v = tuple(rng.randint(-4, 4) for _ in range(m))
            assert _phi_commutes(A, p, r, v, words), (str(p), str(r), v)


# -- the limit group ---------------------------------------------------------------


def test_gtilde_element_basics():
    a = GTildeElement((4, 2), IntPolynomial.of(3, 2))
    assert str(a) == "(4,2) / (3 + 2x)"
    with pytest.raises(MatrixError, match="odd constant"):
        GTildeElement((1, 0), IntPolynomial.of(2, 1))
    with pytest.raises(MatrixError, match="odd constant"):
        GTildeElement((1, 0), IntPolynomial())


def test_gtilde_add_pinned(mat_a):
    a = GTildeElement((1, 0), IntPolynomial.of(3, 2))
    b = GTildeElement((1, 0), IntPolynomial.of(1))
    s = gtilde_add(a, b, mat_a)
    assert s.v == (4, 2) and s.p == IntPolynomial.of(3, 2)
    zero = GTildeElement((0, 0), IntPolynomial.of(1))
    assert gtilde_eq(gtilde_add(a, gtilde_neg(a), mat_a), zero, mat_a)
    assert gtilde_eq(gtilde_add(a, zero, mat_a), a, mat_a)


def test_gtilde_residual_pinned(mat_a):
    a = GTildeElement((1, 0), IntPolynomial.of(3, 2))
    r0, out0 = gtilde_residual(a, 0, mat_a)
    assert (r0.v, r0.p, out0) == ((0, 1), IntPolynomial.of(3, 2), 1)
    r1, out1 = gtilde_residual(a, 1, mat_a)
    assert (r1.v, r1.p, out1) == ((-2, -2), IntPolynomial.of(3, 2), 0)


def _random_gtilde(rng, m):
    v = tuple(rng.randint(-4, 4) for _ in range(m))
    p = IntPolynomial(
        [2 * rng.randint(-2, 2) + 1]
        + [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
    )
    return GTildeElement(v, p)


def _scaled(a, r, A, star):
    return GTildeElement(poly_action(r, a.v, A), reduce_mod(r * a.p, star))


def test_gtilde_laws(mat_a):
    rng = random.Random(3030)
    star = CHI_STAR_A
    for _ in range(40):
        a = _random_gtilde(rng, 2)
        b = _random_gtilde(rng, 2)
        c = _random_gtilde(rng, 2)
        r = IntPolynomial([2 * rng.randint(-2, 2) + 1, rng.randint(-2, 2)])
        a2 = _scaled(a, r, mat_a, star)
        # scaling is invisible to equality
        assert gtilde_eq(a, a2, mat_a)
        # addition: commutative, associative, well-defined under scaling
        assert gtilde_eq(gtilde_add(a, b, mat_a), gtilde_add(b, a, mat_a), mat_a)
        assert gtilde_eq(
            gtilde_add(gtilde_add(a, b, mat_a), c, mat_a),
            gtilde_add(a, gtilde_add(b, c, mat_a), mat_a),
            mat_a,
        )
        assert gtilde_eq(gtilde_add(a2, b, mat_a), gtilde_add(a, b, mat_a), mat_a)
        # residuation is well-defined under scaling and preserves the verdict
        for bit in (0, 1):
            ra, oa = gtilde_residual(a, bit, mat_a)
            ra2, oa2 = gtilde_residual(a2, bit, mat_a)
            assert oa == oa2
            assert gtilde_eq(ra, ra2, mat_a)


# -- universality of the adjoined generator -------------------------------------


def _bisimilar(cfg1, v1, cfg2, v2, limit=100000):
    """Exact bisimulation of two vectors by memoized pair walking."""
    seen = set()
    stack = [(v1, v2)]
    while stack:
        a, b = stack.pop()
        if (a, b) in seen:
            continue
        if len(seen) >= limit:
            raise AssertionError("pair walk exploded")
        seen.add((a, b))
        for bit in (0, 1):
            na, oa = residual_vector(cfg1, a, bit)
            nb, ob = residual_vector(cfg2, b, bit)
            if oa != ob:
                return False
            stack.append((na, nb))
    return True


def test_translation_state_is_universal(mat_a, principal_figure):
    """In every c(A, e) the state e itself behaves exactly like the adjoined
    generator of the principal machine, located at (1,1) in c(A, (1,1))."""
    delta_cfg = CompleteConfig(mat_a, (1, 1))
    for x in range(-5, 6):
        for y in range(-5, 6):
            if x % 2 == 0:
                continue
            e = (x, y)
            cfg = CompleteConfig(mat_a, e)
            assert _bisimilar(cfg, e, delta_cfg, (1, 1)), e
    # sanity: some vector that is not the translation vector differs
    cfg32 = CompleteConfig(mat_a, (3, 2))
    assert not _bisimilar(cfg32, (1, 0), delta_cfg, (1, 1))
