"""Acceptance gate: ten numbered tests, one per shipping criterion.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Results are asserted exactly; the only tolerances are the
wall-clock budgets pinned below and the 1e-6 margin of the numeric root
oracle in criterion 8 (marginal polynomials are excluded there, never
reclassified).
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from abmealy.analysis import infer_matrix, witness_search
from abmealy.cli import main
from abmealy.complete import (
    CompleteConfig,
    GTildeElement,
    find_location_mismatch,
    gtilde_add,
    gtilde_eq,
    gtilde_residual,
    locate,
    orbit_automaton,
    poly_action,
    poly_to_vector,
    residual_vector,
    unit_vector,
    vector_label,
)
from abmealy.exactalg import (
    HALF,
    IntPolynomial,
    RationalPolynomial,
    char_poly,
    companion_from_chi,
    is_contracting,
    mul_mod,
    parse_matrix,
    reduce_mod,
)
from abmealy.group import AbelianVerdict, build_principal, check_abelian
from abmealy.mealy import find_isomorphism
from conftest import A32_TEXT, LAMPLIGHTER_TEXT, MAT_A_TEXT

TRANSDUCE_BUDGET_S = 0.001      # criterion 1
LOCATE_VERIFY_BUDGET_S = 5.0    # criterion 2
PRINCIPAL_BUDGET_S = 1.0        # criterion 3
WITNESS_BUDGET_S = 5.0          # criterion 7
EXACT_ALGEBRA_BUDGET_S = 30.0   # criterion 8
INFER_BUDGET_S = 30.0           # criterion 10
ROOT_ORACLE_MARGIN = 1e-6       # criterion 8b

CHI_A = RationalPolynomial.of(HALF, 1, 1)


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _random_odd_poly(rng):
    """Integer polynomial of degree <= 3 with an odd constant term."""
    coeffs = [rng.choice((-3, -1, 1, 3))]
    coeffs += [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
    return IntPolynomial(coeffs)


def test_acceptance_01_figure_transduction(xyz):
    assert xyz.transduce("x", "0110") == "1100"
    best = None
    for _ in range(5):
        t0 = time.perf_counter()
        xyz.transduce("x", "0110")
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    assert best < TRANSDUCE_BUDGET_S


def test_acceptance_02_location_and_exhaustive_verification(a32, mat_a, tmp_path,
                                                            capsys):
    t0 = time.perf_counter()
    locmap = locate(a32, mat_a)
    assert locmap.p == IntPolynomial.of(3, 2)
    assert locmap.e == (3, 2)
    assert locmap.assignment == {"f": (1, 0), "f0": (0, 1), "f1": (-2, -2)}
    aut_file = tmp_path / "a32.aut"
    aut_file.write_text(A32_TEXT)
    mat_file = tmp_path / "A.mat"
    mat_file.write_text(MAT_A_TEXT)
    code = main(["verify", str(aut_file), str(mat_file), "--maxlen", "12"])
    assert time.perf_counter() - t0 < LOCATE_VERIFY_BUDGET_S
    assert code == 0
    assert capsys.readouterr().out == "ok: all words up to length 12 agree\n"


def test_acceptance_03_principal_machine_is_the_unit_orbit(a32, mat_a):
    t0 = time.perf_counter()
    principal = build_principal(a32)
    assert len(principal.states) == 7
    e1 = unit_vector(2)
    config = CompleteConfig(mat_a, e1)
    orbit_machine = orbit_automaton(config, [e1])
    assert len(orbit_machine.states) == 7
    iso = find_isomorphism(principal, orbit_machine)
    assert iso is not None
    gamma_vector, _ = residual_vector(config, e1, 1)
    assert gamma_vector == (-2, -1)
    assert iso["f1-f0"] == vector_label(gamma_vector)
    assert time.perf_counter() - t0 < PRINCIPAL_BUDGET_S


def test_acceptance_04_translation_state_universality(mat_a):
    e1 = unit_vector(2)
    base = CompleteConfig(mat_a, e1)
    odd_vectors = [(a, b) for a in (-3, -1, 1, 3) for b in range(-3, 4)]
    assert len(odd_vectors) == 28
    for e in odd_vectors:
        other = CompleteConfig(mat_a, e)
        # Depth-first sweep of the full binary tree of words of length <= 12:
        # the output along every edge must agree between the two machines.
        stack = [(e1, e, 12)]
        while stack:
            va, vb, depth = stack.pop()
            if depth == 0:
                continue
            for bit in (0, 1):
                ra, oa = residual_vector(base, va, bit)
                rb, ob = residual_vector(other, vb, bit)
                assert oa == ob, (e, va, vb, bit)
                stack.append((ra, rb, depth - 1))


def test_acceptance_05_scaling_commutes_with_residuation(mat_a):
    rng = random.Random(52026)
    star = IntPolynomial.of(2, 2, 1)
    for _ in range(500):
        r = _random_odd_poly(rng)
        p = _random_odd_poly(rng)
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        w = (rng.randint(-9, 9), rng.randint(-9, 9))
        cfg_p = CompleteConfig(mat_a, poly_to_vector(p, mat_a))
        cfg_q = CompleteConfig(mat_a, poly_to_vector(reduce_mod(r * p, star), mat_a))

        def phi(u):
            return poly_action(r, u, mat_a)

        assert phi(_vadd(v, w)) == _vadd(phi(v), phi(w))
        for bit in (0, 1):
            rv, out_plain = residual_vector(cfg_p, v, bit)
            rphi, out_mapped = residual_vector(cfg_q, phi(v), bit)
            assert out_mapped == out_plain
            assert rphi == phi(rv)


def test_acceptance_06_classification_of_the_figure_machines(a32, lamplighter,
                                                             tmp_path, capsys):
    report = check_abelian(a32)
    assert report.verdict is AbelianVerdict.ABELIAN_FREE_CANDIDATE
    assert str(report.gamma) == "f1 - f0"
    report = check_abelian(lamplighter)
    assert report.verdict is AbelianVerdict.NOT_ABELIAN
    assert report.witness[0] == "beta"
    a_file = tmp_path / "a32.aut"
    a_file.write_text(A32_TEXT)
    l_file = tmp_path / "lamplighter.aut"
    l_file.write_text(LAMPLIGHTER_TEXT)
    assert main(["check", str(a_file)]) == 0
    assert capsys.readouterr().out == (
        "verdict: AbelianFreeCandidate\ngamma: f1 - f0\n")
    assert main(["check", str(l_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "verdict: NotAbelian"
    assert lines[1] == "witness: beta"


def test_acceptance_07_minimal_witness_polynomials():
    t0 = time.perf_counter()
    star = IntPolynomial.of(2, 2, 1)
    found = witness_search(star)
    assert found == IntPolynomial.of(1, 0, 1, 1, 1)  # 1 + x^2 + x^3 + x^4
    assert reduce_mod(found, star) == -1
    assert witness_search(IntPolynomial.of(-2, 1), max_degree=10) is None
    assert time.perf_counter() - t0 < WITNESS_BUDGET_S


def test_acceptance_08_exact_algebra_suite():
    t0 = time.perf_counter()

    # (a) companion/char_poly round-trip over every admissible characteristic
    #     polynomial of degree <= 4 whose doubled coefficients stay within 2.
    count = 0
    for m in range(1, 5):
        for g0 in (-1, 1):
            for rest in itertools.product(range(-2, 3), repeat=m - 1):
                coeffs = ([Fraction(g0, 2)]
                          + [Fraction(gi, 2) for gi in rest]
                          + [Fraction(1)])
                chi = RationalPolynomial(coeffs)
                assert char_poly(companion_from_chi(chi)) == chi
                count += 1
    assert count == 312

    # (b) Schur-Cohn decisions against a numeric root oracle.
    rng = random.Random(82026)
    checked = 0
    for _ in range(200):
        deg = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                  for _ in range(deg)] + [Fraction(1)]
        chi = RationalPolynomial(coeffs)
        roots = np.roots([float(c) for c in reversed(chi.coeffs)])
        radius = max(abs(z) for z in roots)
        if abs(radius - 1.0) < ROOT_ORACLE_MARGIN:
            continue  # too close to the circle for the float oracle to call
        assert is_contracting(chi) == (radius < 1.0), chi
        checked += 1
    assert checked >= 150

    # (c) ring laws in Z[x] modulo three fixed monic moduli.
    moduli = (IntPolynomial.of(2, 2, 1), IntPolynomial.of(-2, 1),
              IntPolynomial.of(-2, 0, 0, 1))
    for i in range(1000):
        m = moduli[i % 3]
        a, b, c = (IntPolynomial([rng.randint(-5, 5) for _ in range(5)])
                   for _ in range(3))
        assert mul_mod(a, b, m) == mul_mod(b, a, m)
        assert mul_mod(mul_mod(a, b, m), c, m) == mul_mod(a, mul_mod(b, c, m), m)
        assert mul_mod(a + b, c, m) == reduce_mod(
            mul_mod(a, c, m) + mul_mod(b, c, m), m)

    assert time.perf_counter() - t0 < EXACT_ALGEBRA_BUDGET_S


def test_acceptance_09_fraction_group_suite(mat_a):
    rng = random.Random(92026)

    def scale(el, r):
        return GTildeElement(poly_action(r, el.v, mat_a), r * el.p)

    for _ in range(500):
        a = GTildeElement((rng.randint(-9, 9), rng.randint(-9, 9)),
                          _random_odd_poly(rng))
        b = GTildeElement((rng.randint(-9, 9), rng.randint(-9, 9)),
                          _random_odd_poly(rng))
        r = _random_odd_poly(rng)
        s = _random_odd_poly(rng)
        a_scaled = scale(a, r)
        a_twice = scale(a_scaled, s)
        b_scaled = scale(b, s)

        assert gtilde_eq(a, a, mat_a)
        assert gtilde_eq(a, a_scaled, mat_a)
        assert gtilde_eq(a_scaled, a, mat_a)
        assert gtilde_eq(a, a_twice, mat_a)

        assert gtilde_eq(gtilde_add(a, b, mat_a),
                         gtilde_add(a_scaled, b_scaled, mat_a), mat_a)

        bit = rng.randint(0, 1)
        res_plain, out_plain = gtilde_residual(a, bit, mat_a)
        res_scaled, out_scaled = gtilde_residual(a_scaled, bit, mat_a)
        assert out_plain == out_scaled
        assert gtilde_eq(res_plain, res_scaled, mat_a)


def test_acceptance_10_matrix_inference(a32):
    t0 = time.perf_counter()
    result = infer_matrix(a32)
    assert result is not None
    assert result.chi == CHI_A
    assert result.matrix.rows == parse_matrix(MAT_A_TEXT).rows
    assert result.location.p == IntPolynomial.of(3, 2)
    assert result.location.e == (3, 2)
    assert result.location.assignment == {
        "f": (1, 0), "f0": (0, 1), "f1": (-2, -2)}
    assert time.perf_counter() - t0 < INFER_BUDGET_S
