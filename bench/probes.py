"""Fixed-input probes of single public functions, one metric each.

Inputs are built the way the CLI builds them (MATRIX and AUT text through
the library's parsers) and do not depend on the workload or seed.  The
library memoizes `is_irreducible` and, at the parent of this benchmark, the
per-matrix integer rows and the generator tables, so every probe says how it
runs: "warm" (an untimed first call fills the memos), "cold" (all memos are
emptied before every call, as in a fresh CLI process), or "-" (touches no
memo).

`run_all` returns {name: (value, unit, memo state)}.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import corpus
import oracles

BATCH_S = 0.02     # one timed batch lasts at least this long
BATCHES = 5


def per_call(fn, batches: int = BATCHES) -> float:
    """Median seconds per call of fn(n) (which makes n calls) over batches."""
    n = 1
    while True:
        t0 = time.perf_counter()
        fn(n)
        dt = time.perf_counter() - t0
        if dt >= BATCH_S:
            break
        n = max(2 * n, int(n * BATCH_S / max(dt, 1e-9)) + 1)
    samples = [dt / n]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        fn(n)
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def _repeat(call):
    def fn(n):
        for _ in range(n):
            call()
    return fn


def run_all(lib, clearers) -> dict:
    """clearers: the cache_clear of every memo in the library."""
    out = {}

    def put(name, value, unit, memo):
        out[name] = (value, unit, memo)

    def warm(call):
        call()
        return _repeat(call)

    def cold(call):
        def fresh():
            for clear in clearers:
                clear()
            return call()
        return fresh

    # -- inputs -----------------------------------------------------------------
    figure = lib.parse_automaton(corpus.FIGURE_AUT)
    A2 = lib.parse_matrix(corpus.FIGURE_MATRIX)
    g_big = corpus.CLASSES["o23555"][0]
    text823 = corpus.build(lib, corpus.CLASSES["o823"][0])[0].serialize()
    mat1179 = lib.serialize_matrix(corpus.build(lib, corpus.CLASSES["o1179"][0])[1])
    A6 = lib.parse_matrix(lib.serialize_matrix(lib.companion_from_chi(
        lib.RationalPolynomial([Fraction(c, 2) for c in g_big] + [Fraction(1)]))))
    chi6 = lib.char_poly(A6)
    star6 = lib.IntPolynomial(oracles.chi_star(g_big))
    m21 = lib.parse_automaton(corpus.build(lib, corpus.CLASSES["o21"][0])[0].serialize())
    m61 = lib.parse_automaton(corpus.build(lib, corpus.CHI61)[0].serialize())
    word = "0110100110010110" * 625          # 10^4 bits

    # -- mealy ----------------------------------------------------------------
    pairs = [(s, b) for s in figure.states for b in (0, 1)] * 100

    def steps(n):
        step = figure.step
        for _ in range(n):
            for s, b in pairs:
                step(s, b)
    put("mealy.step_ns", per_call(steps) / len(pairs) * 1e9, "ns", "-")
    put("mealy.transduce_ns_per_bit",
        per_call(_repeat(lambda: figure.transduce("f", word))) / len(word) * 1e9, "ns", "-")
    put("mealy.parse_ms", per_call(_repeat(lambda: lib.parse_automaton(text823))) * 1e3,
        "ms", "-")

    # -- complete ---------------------------------------------------------------
    for name, A, e in (("complete.step_us.dim2", A2, (3, 2)),
                       ("complete.step_us.dim6", A6, lib.unit_vector(6))):
        config = lib.CompleteConfig(A, e)
        vecs = [e]
        while len(vecs) < 50:      # the first step fills the per-matrix memo
            vecs.append(lib.residual_vector(config, vecs[-1], len(vecs) % 2)[0])

        def step_all(n, config=config, vecs=vecs):
            rv = lib.residual_vector
            for _ in range(n):
                for v in vecs:
                    rv(config, v, 0)
                    rv(config, v, 1)
        put(name, per_call(step_all) / (2 * len(vecs)) * 1e6, "us", "warm")
    config2 = lib.CompleteConfig(A2, (3, 2))
    put("complete.transduce_vector_ns_per_bit",
        per_call(warm(lambda: lib.transduce_vector(config2, (1, 0), word)))
        / len(word) * 1e9, "ns", "warm")
    A1179 = lib.parse_matrix(mat1179)
    e5 = lib.unit_vector(A1179.dim)
    put("complete.orbit_s", per_call(warm(
        lambda: lib.orbit(lib.CompleteConfig(A1179, e5), e5)), 3), "s", "warm")
    locmap = lib.locate(figure, A2)
    put("complete.verify_s", per_call(warm(
        lambda: lib.find_location_mismatch(figure, A2, locmap, max_len=8)), 3), "s", "warm")
    put("complete.locate_s", per_call(warm(lambda: lib.locate(figure, A2)), 3), "s", "warm")

    # -- group ------------------------------------------------------------------
    odd = [s for s in m61.states if m61.state_parity(s) is lib.Parity.ODD]

    def diff(s):
        return (lib.GroupElement.unit(m61, m61.residual(s, 1))
                - lib.GroupElement.unit(m61, m61.residual(s, 0)))
    pair = diff(odd[0]) - diff(odd[1])      # the first odd pair check_abelian tests
    put("group.residuate_us",
        per_call(warm(lambda: lib.residuate_element(pair, 1))) * 1e6, "us", "warm")
    put("group.identity_test_ms",
        per_call(warm(lambda: lib.identity_test(pair)), 3) * 1e3, "ms", "warm")
    put("group.check_abelian_s",
        per_call(_repeat(cold(lambda: lib.check_abelian(m21))), 3), "s", "cold")
    put("group.build_principal_s",
        per_call(_repeat(cold(lambda: lib.build_principal(m21))), 3), "s", "cold")

    # -- exactalg ---------------------------------------------------------------
    put("exactalg.hash_matrix_us", per_call(_repeat(lambda: hash(A6))) * 1e6, "us", "-")
    big = lib.IntPolynomial(range(1, 14))
    put("exactalg.reduce_mod_us",
        per_call(_repeat(lambda: lib.reduce_mod(big, star6))) * 1e6, "us", "-")
    put("exactalg.is_contracting_us",
        per_call(_repeat(lambda: lib.is_contracting(chi6))) * 1e6, "us", "-")
    put("exactalg.is_irreducible_ms",
        per_call(_repeat(cold(lambda: lib.is_irreducible(chi6))), 3) * 1e3, "ms", "cold")
    put("exactalg.char_poly_us", per_call(_repeat(lambda: lib.char_poly(A6))) * 1e6, "us", "-")
    M6 = lib.RationalMatrix(A6.rows)
    rhs = tuple(range(1, 7))
    put("exactalg.solve_us", per_call(_repeat(lambda: M6.solve(rhs))) * 1e6, "us", "-")
    r = lib.IntPolynomial((-1, -1, 0, -1))
    star61 = lib.IntPolynomial(oracles.chi_star(corpus.CHI61))
    if lib.resultant(r, star61) not in (8, -8):
        raise RuntimeError("resultant probe: Res(-1 - x - x^3, chi*) is not +-8")
    put("exactalg.resultant_us",
        per_call(_repeat(lambda: lib.resultant(r, star61))) * 1e6, "us", "-")

    # -- analysis ---------------------------------------------------------------
    star823 = lib.IntPolynomial(oracles.chi_star(corpus.CLASSES["o823"][0]))
    put("analysis.witness_search_ms",
        per_call(_repeat(lambda: lib.witness_search(star823)), 3) * 1e3, "ms", "-")
    g1179 = corpus.CLASSES["o1179"][0]
    e1 = (1,) + (0,) * (len(g1179) - 1)
    lat = oracles.Lattice(oracles.companion_rows(g1179), e1)
    graph = {v: (lat.step(v, 0)[0], lat.step(v, 1)[0])
             for v in lat.orbit([e1, tuple(-c for c in e1)])}
    put("analysis.scc_decompose_ms",
        per_call(_repeat(lambda: lib.scc_decompose(graph)), 3) * 1e3, "ms", "-")
    put("analysis.check_scc_instance_s", per_call(_repeat(cold(
        lambda: lib.check_scc_instance(lib.parse_matrix(mat1179)))), 3), "s", "cold")

    # infer on the figure machine, counting the candidate matrices it locates
    analysis = lib.analysis
    real_locate = analysis.locate
    tried = [0, 0]

    def counting_locate(*args, **kwargs):
        tried[0] += 1
        result = real_locate(*args, **kwargs)
        tried[1] += 1
        return result
    infer = cold(lambda: lib.infer_matrix(figure, max_dim=2))
    times = []
    analysis.locate = counting_locate
    try:
        for _ in range(3):
            tried[:] = [0, 0]
            t0 = time.perf_counter()
            found = infer()
            times.append(time.perf_counter() - t0)
    finally:
        analysis.locate = real_locate
    if found is None:
        raise RuntimeError("infer probe: no matrix found for the figure machine")
    put("analysis.infer_s", statistics.median(times), "s", "cold")
    put("analysis.infer_candidates", tried[0], "count", "cold")
    put("analysis.infer_fit_ratio", tried[1] / tried[0], "ratio", "cold")

    # -- cli --------------------------------------------------------------------
    put("cli.build_parser_ms", per_call(_repeat(lib.cli.build_parser)) * 1e3, "ms", "-")
    return out
