"""End-to-end tests for the command line interface.

Most tests drive ``abmealy.cli.main`` in process with a real argv list and
assert exact stdout/stderr text, JSON payloads, and exit codes.  Input files
are written once to a per-module temporary directory.  One smoke test runs
the ``abmealy`` console-script entry point declared in ``pyproject.toml``
through a generated wrapper script in a subprocess, against this checkout's
``src``; others run ``python -m abmealy`` where a process is the point, as
with a stdout whose reader has gone.
"""

import argparse
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from abmealy import (
    AbelianVerdict,
    build_principal,
    classify,
    find_isomorphism,
    parse_automaton,
    parse_int_poly,
    parse_matrix,
    reduce_mod,
    unit_vector,
)
from abmealy import cli
from abmealy.analysis import check_scc_instance
from abmealy.cli import main
from abmealy.complete import (
    CompleteConfig,
    _constructs,
    format_vector,
    orbit,
    orbit_automaton,
    parse_vector,
)
from abmealy.exactalg import companion_from_chi, parse_chi
from conftest import (
    A32_TEXT,
    CHI_ERRORS,
    CORPUS_GS,
    IDENTITY_TEXT,
    LAMPLIGHTER_TEXT,
    MAT_A_TEXT,
    ODOMETER_TEXT,
    PRINCIPAL_FIGURE_TEXT,
    SINK_TEXT,
    XYZ_TEXT,
    random_machine,
    union_machine,
    unit_config,
)

# Hand-checked location of the three-state machine inside the complete
# automaton of A = [[-1, 1], [-1/2, 0]]; also pinned in test_complete.py.
A32_MAP_TEXT = """\
p: 3 + 2x
e: (3,2)
state f -> (1,0)
state f0 -> (0,1)
state f1 -> (-2,-2)
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "a32.aut").write_text(A32_TEXT)
    (d / "xyz.aut").write_text(XYZ_TEXT)
    (d / "lamplighter.aut").write_text(LAMPLIGHTER_TEXT)
    (d / "identity.aut").write_text(IDENTITY_TEXT)
    (d / "sink.aut").write_text(SINK_TEXT)
    (d / "union.aut").write_text(union_machine().serialize())
    (d / "A.mat").write_text(MAT_A_TEXT)
    (d / "sausage.mat").write_text("chi -1/2 1\n")
    (d / "broken.aut").write_text("aut x\nstates a\ntrans a 2 0 a\n")
    (d / "corrupt.map").write_text(
        A32_MAP_TEXT.replace("state f0 -> (0,1)", "state f0 -> (0,3)")
    )
    (d / "short.map").write_text(
        A32_MAP_TEXT.replace("state f1 -> (-2,-2)\n", "")
    )
    (d / "long.map").write_text(
        A32_MAP_TEXT.replace("state f0 -> (0,1)", "state f0 -> (0,1,0)")
    )
    (d / "glued.map").write_text(A32_MAP_TEXT.replace("p: 3 + 2x", "p: 3 2x"))
    (d / "misnamed.map").write_text(A32_MAP_TEXT.replace("p: 3 + 2x", "p: 7 + 5x"))
    (d / "extra.map").write_text(A32_MAP_TEXT + "state zz -> (9,9)\n")
    return d


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1, f"expected a single JSON line, got {out!r}"
    return code, json.loads(lines[0])


# -- transduce ---------------------------------------------------------------------


def test_transduce_prints_output_word(capsys, files):
    assert run(capsys, "transduce", str(files / "xyz.aut"), "x", "0110") == (
        0, "1100\n", "")
    assert run(capsys, "transduce", str(files / "a32.aut"), "f", "0110") == (
        0, "1100\n", "")


def test_transduce_dash_is_empty_word(capsys, files):
    assert run(capsys, "transduce", str(files / "a32.aut"), "f", "-") == (0, "\n", "")


def test_transduce_json(capsys, files):
    code, payload = run_json(capsys, "transduce", str(files / "a32.aut"), "f", "0110")
    assert code == 0
    assert payload == {"state": "f", "input": "0110", "output": "1100"}


def test_transduce_unknown_state_fails(capsys, files):
    code, out, err = run(capsys, "transduce", str(files / "a32.aut"), "nope", "01")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "nope" in err


def test_transduce_unknown_state_fails_even_on_empty_word(capsys, files):
    code, out, err = run(capsys, "transduce", str(files / "a32.aut"), "nope", "-")
    assert code == 1
    assert err.startswith("error:") and "nope" in err


def test_transduce_word_must_be_binary(capsys, files):
    code, out, err = run(capsys, "transduce", str(files / "a32.aut"), "f", "01x")
    assert code == 1
    assert err.startswith("error:") and "'0'/'1'" in err


# -- check / gamma -----------------------------------------------------------------


def test_check_classifies_the_three_state_machine(capsys, files):
    code, out, err = run(capsys, "check", str(files / "a32.aut"))
    assert code == 0 and err == ""
    assert out == "verdict: AbelianFreeCandidate\ngamma: f1 - f0\n"


def test_check_reports_a_witness_for_non_abelian(capsys, files):
    code, out, err = run(capsys, "check", str(files / "lamplighter.aut"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: NotAbelian"
    assert lines[1] == "witness: beta"
    assert lines[2].startswith("reason: ")


def test_check_json(capsys, files):
    code, payload = run_json(capsys, "check", str(files / "a32.aut"))
    assert code == 0
    assert payload == {
        "verdict": "AbelianFreeCandidate",
        "gamma": "f1 - f0",
        "witness": None,
    }
    code, payload = run_json(capsys, "check", str(files / "lamplighter.aut"))
    assert code == 0
    assert payload["verdict"] == "NotAbelian"
    assert payload["gamma"] is None
    assert payload["witness"]["state"] == "beta"
    assert isinstance(payload["witness"]["reason"], str)


def test_gamma_prints_the_residual_difference(capsys, files):
    assert run(capsys, "gamma", str(files / "a32.aut")) == (0, "f1 - f0\n", "")
    code, payload = run_json(capsys, "gamma", str(files / "a32.aut"))
    assert code == 0 and payload == {"gamma": "f1 - f0"}


def test_gamma_needs_an_odd_state(capsys, files):
    code, out, err = run(capsys, "gamma", str(files / "identity.aut"))
    assert code == 1
    assert err.startswith("error:")


# -- principal ---------------------------------------------------------------------


def test_principal_from_aut_matches_the_handwritten_machine(capsys, files):
    code, out, err = run(capsys, "principal", "--aut", str(files / "a32.aut"))
    assert code == 0 and err == ""
    assert out == parse_automaton(PRINCIPAL_FIGURE_TEXT).serialize()


def test_principal_from_chi_builds_the_unit_orbit_machine(capsys, files):
    code, out, err = run(capsys, "principal", "--chi", "1/2 1 1")
    assert code == 0
    machine = parse_automaton(out)
    assert machine.name == "orbit_1_0"
    assert len(machine.states) == 7


def test_principal_from_chi_walks_from_e1_and_its_negation(capsys, files):
    """The principal machine holds the negations: for chi = x - 1/2, -e1 is
    off the orbit of e1, and the walk from both gives the three states of
    the odometer's principal machine, all of the orbit that `scc` counts."""
    code, out, err = run(capsys, "principal", "--chi", "-1/2 1")
    assert (code, err) == (0, "")
    machine = parse_automaton(out)
    assert (machine.name, machine.states) == ("orbit_1", ("-1", "0", "1"))
    assert "states: 3\n" in run(capsys, "scc", str(files / "sausage.mat"))[1]


def principal_of_inferred_chi(capsys, path):
    """`principal --chi` of the chi that `infer` prints for the machine at path."""
    code, payload = run_json(capsys, "infer", str(path))
    assert code == 0 and payload["found"]
    code, out, err = run(capsys, "principal", "--chi", " ".join(payload["chi"]))
    assert (code, err) == (0, "")
    return parse_automaton(out)


def constructed_sample(seed, count):
    """The first count random machines that classify calls AbelianFreeCandidate
    with a constructed chi."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        aut = random_machine(rng, rng.randint(2, 9))
        if classify(aut).verdict is AbelianVerdict.ABELIAN_FREE_CANDIDATE and _constructs(aut):
            found.append(aut.serialize())
    return found


ORACLE_MACHINES = {"figure": A32_TEXT, "odometer": ODOMETER_TEXT,
                   **{f"chi{g}": orbit_automaton(unit_config(g), [unit_vector(len(g))]).serialize()
                      for g in CORPUS_GS},
                   **{f"random{k}": t for k, t in enumerate(constructed_sample(31, 12))}}


@pytest.mark.parametrize("text", ORACLE_MACHINES.values(), ids=ORACLE_MACHINES)
def test_principal_machine_is_the_orbit_of_e1_and_its_negation(capsys, tmp_path, text):
    """The paper's initial structure as an oracle: the principal machine of
    A is c(A, e1) on orbit(e1) and orbit(-e1), where A is the companion
    matrix of the chi that `infer` prints."""
    path = tmp_path / "m.aut"
    path.write_text(text)
    principal = build_principal(parse_automaton(text))
    orbit_machine = principal_of_inferred_chi(capsys, path)
    assert len(principal.states) == len(orbit_machine.states)
    assert find_isomorphism(principal, orbit_machine) is not None


def test_principal_writes_output_file(capsys, files, tmp_path):
    target = tmp_path / "principal.aut"
    code, out, err = run(
        capsys, "principal", "--aut", str(files / "a32.aut"), "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == parse_automaton(PRINCIPAL_FIGURE_TEXT).serialize()


def test_principal_json(capsys, files):
    code, payload = run_json(capsys, "principal", "--aut", str(files / "a32.aut"))
    assert code == 0
    assert payload["name"] == "principal_a32"
    assert len(payload["states"]) == 7
    assert parse_automaton(payload["aut"]).name == "principal_a32"


@pytest.mark.parametrize("chi", [None, "1/2 1", "1/2 -1/2 1", "1/2 1/2 1/2 1 1/2 1"])
def test_principal_json_written_a_chunk_at_a_time_is_one_dumps_line(capsys, files, monkeypatch,
                                                                     chi):
    """The line that json.dumps of the whole payload gives, at every chunk
    size: the figure's principal machine, small chi and o823."""
    if chi is None:
        argv, machine = ["--aut", str(files / "a32.aut")], parse_automaton(PRINCIPAL_FIGURE_TEXT)
    else:
        A = companion_from_chi(parse_chi(chi))
        e1 = unit_vector(A.dim)
        argv, machine = ["--chi", chi], orbit_automaton(CompleteConfig(A, e1), [e1])
    want = json.dumps({"name": machine.name, "states": list(machine.states),
                       "aut": machine.serialize()}) + "\n"
    for chunk in (cli._CHUNK, 1, 7):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        assert run(capsys, "principal", *argv, "--json") == (0, want, "")


def test_principal_requires_exactly_one_source(capsys, files):
    with pytest.raises(SystemExit) as exc:
        main(["principal", "--aut", str(files / "a32.aut"), "--chi", "1/2 1 1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["principal"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_principal_closure_budget_names_its_count_and_bound(capsys, files):
    code, out, err = run(capsys, "principal", "--aut", str(files / "a32.aut"),
                         "--bound", "3")
    assert (code, out) == (1, "")
    assert err == ("error: principal closure reached 4 elements, over the bound 3; "
                   "raise the bound\n")


def test_principal_rejects_non_abelian_input(capsys, files):
    code, out, err = run(capsys, "principal", "--aut", str(files / "lamplighter.aut"))
    assert code == 1
    assert err.startswith("error:")


# -- orbit -------------------------------------------------------------------------


def test_orbit_from_the_translation_vector(capsys, files):
    code, out, err = run(capsys, "orbit", str(files / "A.mat"), "--e", "(1,0)")
    assert code == 0
    assert out == "(1,0)\n(0,0)\n(-2,-1)\n(1,1)\n(-1,-1)\n(-1,0)\n(2,1)\n"


def test_orbit_with_custom_start(capsys, files):
    code, out, err = run(
        capsys, "orbit", str(files / "A.mat"), "--e", "(3,2)", "--start", "(1,0)")
    assert code == 0
    assert out == "(1,0)\n(0,1)\n(-2,-2)\n"


def test_orbit_json(capsys, files):
    code, payload = run_json(capsys, "orbit", str(files / "A.mat"), "--e", "(1,0)")
    assert code == 0
    assert payload["count"] == 7
    assert payload["vectors"][0] == [1, 0]
    assert payload["vectors"][2] == [-2, -1]


def test_orbit_rejects_even_translation_vector(capsys, files):
    code, out, err = run(capsys, "orbit", str(files / "A.mat"), "--e", "(2,1)")
    assert code == 1
    assert err.startswith("error:") and "odd" in err


def test_orbit_commands_reject_a_non_contracting_chi(capsys, tmp_path):
    mat = tmp_path / "expanding.mat"
    mat.write_text("chi 1/2 -3/2 1\n")  # roots 1/2 and 1
    want = "error: characteristic polynomial 1/2 - 3/2x + x^2 is not contracting\n"
    for argv in (("orbit", str(mat), "--e", "(1,0)"),
                 ("scc", str(mat)),
                 ("principal", "--chi", "1/2 -3/2 1")):
        assert run(capsys, *argv) == (1, "", want)


def test_orbit_budget_names_its_count_and_bound(capsys, files):
    want = ("error: orbit reached 4 vectors, over the bound 3; raise the bound or "
            "check that the matrix is contracting\n")
    for argv in (("orbit", str(files / "A.mat"), "--e", "(1,0)"),
                 ("scc", str(files / "A.mat")),
                 ("principal", "--chi", "1/2 1 1")):
        assert run(capsys, *argv, "--bound", "3") == (1, "", want)


def _chunkings(n):
    """Chunk sizes that leave n vectors just above, at and just below a multiple."""
    return sorted({1, 2, max(n // 2, 1), max(n - 1, 1), n, n + 1, cli._CHUNK})


# (MATRIX text, e, start): --start other than e, dimension 1, and negative
# first entries, with 3 to 61 vectors
CHUNKED_ORBITS = [
    (MAT_A_TEXT, "(1,0)", None),
    (MAT_A_TEXT, "(3,2)", "(1,0)"),
    ("chi -1/2 1\n", "(-1)", None),
    ("chi 1/2 1\n", "(1)", "(-3)"),
    ("chi 1/2 -1 3/2 -3/2 1\n", "(1,0,0,0)", "(-1,0,0,0)"),
]


@pytest.mark.parametrize("text,e,start", CHUNKED_ORBITS)
def test_orbit_text_is_format_vector_in_every_chunking(text, e, start, capsys, tmp_path,
                                                       monkeypatch):
    mat = tmp_path / "m.mat"
    mat.write_text(text)
    vectors = orbit(CompleteConfig(parse_matrix(text), parse_vector(e)), parse_vector(start or e))
    want = "".join(format_vector(v) + "\n" for v in vectors)
    argv = ["orbit", str(mat), "--e", e] + (["--start", start] if start else [])
    for chunk in _chunkings(len(vectors)):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        assert run(capsys, *argv) == (0, want, ""), chunk


@pytest.mark.parametrize("source", [["--aut", "a32.aut"], ["--chi", "1/2 -1 3/2 -3/2 1"]])
def test_principal_text_is_serialize_in_every_chunking(source, capsys, files, tmp_path,
                                                       monkeypatch):
    argv = ["principal", source[0], str(files / source[1]) if source[0] == "--aut" else source[1]]
    code, payload = run_json(capsys, *argv)
    want = payload["aut"]
    assert code == 0 and want == parse_automaton(want).serialize()
    target = tmp_path / "p.aut"
    for chunk in _chunkings(want.count("\n")):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        assert run(capsys, *argv) == (0, want, ""), chunk
        assert run(capsys, *argv, "-o", str(target)) == (0, "", ""), chunk
        assert target.read_text() == want, chunk


@pytest.mark.parametrize("text", [MAT_A_TEXT, "chi -1/2 1\n", "chi 1/2 1\n",
                                  "chi -1/2 0 1\n", "chi 1/2 -1 3/2 -3/2 1\n"])
def test_scc_text_is_format_vector_in_every_chunking(text, capsys, tmp_path, monkeypatch):
    mat = tmp_path / "m.mat"
    mat.write_text(text)
    report = check_scc_instance(parse_matrix(text))
    dec = report.decomposition
    want = "".join(line + "\n" for line in [
        f"chi: {report.chi}", f"chi*: {report.chi_star}", f"states: {len(report.states)}",
        f"components: {len(dec.components)}",
        *(f"  [{i}]{' cyclic' if cyclic else ''}: " + " ".join(map(format_vector, comp))
          for i, (comp, cyclic) in enumerate(zip(dec.components, dec.cyclic))),
        "single nontrivial component: " + ("yes" if report.single_nontrivial else "no"),
        f"witness: {report.witness if report.witness is not None else 'none'}"])
    for chunk in _chunkings(max(map(len, dec.components))):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        assert run(capsys, "scc", str(mat)) == (0, want, ""), chunk


# -- locate / verify ---------------------------------------------------------------


def test_locate_prints_the_location_map(capsys, files):
    code, out, err = run(capsys, "locate", str(files / "a32.aut"), str(files / "A.mat"))
    assert code == 0 and err == ""
    assert out == A32_MAP_TEXT


def test_locate_json(capsys, files):
    code, payload = run_json(
        capsys, "locate", str(files / "a32.aut"), str(files / "A.mat"))
    assert code == 0
    assert payload == {
        "p": [3, 2],
        "p_str": "3 + 2x",
        "e": [3, 2],
        "assignment": {"f": [1, 0], "f0": [0, 1], "f1": [-2, -2]},
    }


def test_locate_writes_output_file(capsys, files, tmp_path):
    target = tmp_path / "a32.map"
    code, out, err = run(
        capsys, "locate", str(files / "a32.aut"), str(files / "A.mat"),
        "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == A32_MAP_TEXT


def test_locate_rejects_non_abelian_input(capsys, files):
    code, out, err = run(
        capsys, "locate", str(files / "lamplighter.aut"), str(files / "A.mat"))
    assert code == 1
    assert err.startswith("error:")


def test_verify_passes_on_a_correct_location(capsys, files):
    code, out, err = run(capsys, "verify", str(files / "a32.aut"), str(files / "A.mat"))
    assert code == 0
    assert out == "ok: all words up to length 10 agree\n"
    code, out, err = run(
        capsys, "verify", str(files / "a32.aut"), str(files / "A.mat"),
        "--maxlen", "4")
    assert code == 0
    assert out == "ok: all words up to length 4 agree\n"


def test_verify_finds_the_mismatch_in_a_corrupted_map(capsys, files):
    code, out, err = run(
        capsys, "verify", str(files / "a32.aut"), str(files / "A.mat"),
        "--map", str(files / "corrupt.map"))
    assert code == 1
    assert out == "mismatch: state f0 word 0000: automaton 0101, vectors 0100\n"


def test_verify_json_mismatch(capsys, files):
    code, payload = run_json(
        capsys, "verify", str(files / "a32.aut"), str(files / "A.mat"),
        "--map", str(files / "corrupt.map"))
    assert code == 1
    assert payload == {
        "ok": False,
        "maxlen": 10,
        "mismatch": {
            "state": "f0",
            "word": "0000",
            "automaton_output": "0101",
            "vector_output": "0100",
        },
    }


def test_verify_json_ok(capsys, files):
    code, payload = run_json(
        capsys, "verify", str(files / "a32.aut"), str(files / "A.mat"),
        "--maxlen", "3")
    assert code == 0
    assert payload == {"ok": True, "maxlen": 3, "mismatch": None}


def test_verify_budget_on_the_words_to_run(capsys, files):
    """verify runs n (2^(L+1) - 2) words: 3 states at length 12 run 24,570,
    at length 30 over 6 * 10^9, so it stops at length 15 (196,602)."""
    code, out, err = run(
        capsys, "verify", str(files / "a32.aut"), str(files / "A.mat"),
        "--maxlen", "12")
    assert (code, out, err) == (0, "ok: all words up to length 12 agree\n", "")
    code, out, err = run(
        capsys, "verify", str(files / "a32.aut"), str(files / "A.mat"),
        "--maxlen", "30")
    assert (code, out) == (1, "")
    assert err == ("error: verify reached 196602 words by length 15, over the "
                   "bound 100000; lower --maxlen\n")
    code, out, err = run(
        capsys, "verify", str(files / "a32.aut"), str(files / "A.mat"),
        "--maxlen", "4", "--bound", "89")
    assert (code, out) == (1, "")
    assert err == ("error: verify reached 90 words by length 4, over the "
                   "bound 89; lower --maxlen\n")


def test_verify_rejects_a_map_missing_a_state(capsys, files):
    code, out, err = run(
        capsys, "verify", str(files / "a32.aut"), str(files / "A.mat"),
        "--map", str(files / "short.map"))
    assert code == 1
    assert err.startswith("error:") and "f1" in err


def test_verify_rejects_a_map_whose_p_does_not_name_its_e(capsys, files):
    code, out, err = run(
        capsys, "verify", str(files / "a32.aut"), str(files / "A.mat"),
        "--map", str(files / "misnamed.map"))
    assert (code, out) == (1, "")
    assert err == "error: p = 7 + 5x names (7,5), not e = (3,2)\n"


def test_verify_rejects_a_map_with_states_the_machine_lacks(capsys, files):
    code, out, err = run(
        capsys, "verify", str(files / "a32.aut"), str(files / "A.mat"),
        "--map", str(files / "extra.map"))
    assert (code, out) == (1, "")
    assert err == "error: map has states not in the machine: zz\n"


def test_verify_rejects_a_map_vector_of_the_wrong_length(capsys, files):
    code, out, err = run(
        capsys, "verify", str(files / "a32.aut"), str(files / "A.mat"),
        "--map", str(files / "long.map"))
    assert code == 1
    assert out == ""
    assert err == "error: vector (0,1,0) has length 3, need 2\n"


# -- embed -------------------------------------------------------------------------


def test_embed_solves_the_scaling_equation(capsys, files):
    code, out, err = run(capsys, "embed", str(files / "A.mat"), "--", "3 2", "-1 1")
    assert code == 0
    assert out == "r: 1 + x\n"
    code, out, err = run(
        capsys, "embed", str(files / "A.mat"), "--json", "--", "3 2", "-1 1")
    assert code == 0
    assert json.loads(out) == {"r": [1, 1], "r_str": "1 + x"}


def test_embed_reports_non_divisibility(capsys, files):
    code, out, err = run(capsys, "embed", str(files / "A.mat"), "3 2", "1")
    assert code == 1
    assert err.startswith("error:") and "not divisible" in err


# -- gtilde ------------------------------------------------------------------------


def test_gtilde_eq(capsys, files):
    code, out, err = run(
        capsys, "gtilde", "eq", str(files / "A.mat"), "(1,0)", "1", "(1,2)", "1 2")
    assert (code, out) == (0, "equal\n")
    code, out, err = run(
        capsys, "gtilde", "eq", str(files / "A.mat"), "(1,0)", "1", "(0,1)", "1")
    assert (code, out) == (0, "not equal\n")
    code, payload = run_json(
        capsys, "gtilde", "eq", str(files / "A.mat"), "(1,0)", "1", "(1,2)", "1 2")
    assert payload == {"equal": True}


def test_gtilde_add(capsys, files):
    code, out, err = run(
        capsys, "gtilde", "add", str(files / "A.mat"), "(1,0)", "3 2", "(1,0)", "1")
    assert code == 0
    assert out == "v: (4,2)\np: 3 + 2x\n"


def test_gtilde_res(capsys, files):
    code, out, err = run(
        capsys, "gtilde", "res", str(files / "A.mat"), "(1,0)", "3 2", "0")
    assert code == 0
    assert out == "v: (0,1)\np: 3 + 2x\nout: 1\n"
    code, payload = run_json(
        capsys, "gtilde", "res", str(files / "A.mat"), "(1,0)", "3 2", "0")
    assert payload == {"v": [0, 1], "p": [3, 2], "p_str": "3 + 2x", "output": 1}


def test_gtilde_denominator_must_have_odd_constant(capsys, files):
    code, out, err = run(
        capsys, "gtilde", "add", str(files / "A.mat"), "(1,0)", "2 1", "(1,0)", "1")
    assert code == 1
    assert err.startswith("error:") and "odd constant" in err


def test_gtilde_res_bit_must_be_zero_or_one(capsys, files):
    with pytest.raises(SystemExit) as exc:
        main(["gtilde", "res", str(files / "A.mat"), "(1,0)", "1", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- scc ---------------------------------------------------------------------------


def test_scc_report_for_the_running_example(capsys, files):
    code, out, err = run(capsys, "scc", str(files / "A.mat"))
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "chi: 1/2 + x + x^2",
        "chi*: 2 + 2x + x^2",
        "states: 7",
        "components: 2",
        "  [0] cyclic: (-2,-1) (-1,-1) (-1,0) (1,0) (1,1) (2,1)",
        "  [1] cyclic: (0,0)",
        "single nontrivial component: yes",
        "witness: 1 + x^2 + x^3 + x^4",
    ]


def test_scc_report_for_the_one_dimensional_counterpoint(capsys, files):
    code, out, err = run(capsys, "scc", str(files / "sausage.mat"))
    assert code == 0
    assert out.splitlines() == [
        "chi: -1/2 + x",
        "chi*: -2 + x",
        "states: 3",
        "components: 3",
        "  [0] cyclic: (-1)",
        "  [1] cyclic: (0)",
        "  [2] cyclic: (1)",
        "single nontrivial component: no",
        "witness: none",
    ]


def test_scc_json(capsys, files):
    code, payload = run_json(capsys, "scc", str(files / "A.mat"))
    assert code == 0
    assert payload["chi"] == ["1/2", "1", "1"]
    assert payload["chi_star"] == [2, 2, 1]
    assert payload["states"] == 7
    assert len(payload["components"]) == 2
    assert payload["components"][1] == {"vectors": [[0, 0]], "cyclic": True}
    assert payload["nontrivial_components"] == [0]
    assert payload["single_nontrivial"] is True
    assert payload["witness"] == [1, 0, 1, 1, 1]
    assert payload["witness_str"] == "1 + x^2 + x^3 + x^4"
    assert list(payload) == ["chi", "chi_star", "states", "components",
                             "nontrivial_components", "single_nontrivial",
                             "witness", "witness_str"]


def test_scc_has_no_degree_option(capsys, files):
    """scc reads its witness off the whole orbit walk, so no degree caps it."""
    with pytest.raises(SystemExit) as exc:
        main(["scc", str(files / "A.mat"), "--degree", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "abmealy: error: unrecognized arguments: --degree 3")


def test_scc_witness_beyond_degree_twelve(capsys, tmp_path):
    """The least witness for chi = 1/2 + x + x^2 + x^3 + x^4 has degree 16."""
    mat = tmp_path / "w16.mat"
    mat.write_text("chi 1/2 1 1 1 1\n")
    code, out, err = run(capsys, "scc", str(mat))
    assert code == 0 and err == ""
    assert out.splitlines()[-2:] == [
        "single nontrivial component: yes",
        "witness: 1 + x^4 + x^5 + x^8 + x^10 + x^12 + x^15 + x^16",
    ]


# -- pathpoly / witness ------------------------------------------------------------


def test_pathpoly_prints_both_forms(capsys, files):
    assert run(capsys, "pathpoly", "1n") == (0, "-1 + x + x^2\n-1 1 1\n", "")
    assert run(capsys, "pathpoly", "1101") == (
        0, "1 + x^2 + x^3 + x^4\n1 0 1 1 1\n", "")
    assert run(capsys, "pathpoly", "-") == (0, "1\n1\n", "")


def test_pathpoly_json(capsys, files):
    code, payload = run_json(capsys, "pathpoly", "1n")
    assert code == 0
    assert payload == {"word": "1n", "poly": [-1, 1, 1], "poly_str": "-1 + x + x^2"}


def test_pathpoly_rejects_bad_letters(capsys, files):
    code, out, err = run(capsys, "pathpoly", "012")
    assert code == 1
    assert err.startswith("error:") and "path letter" in err


def test_witness_finds_the_degree_four_witness(capsys, files):
    code, out, err = run(capsys, "witness", "2 2 1")
    assert (code, out, err) == (0, "1 + x^2 + x^3 + x^4\n", "")
    # the printed form parses back as it is, trailing newline included
    assert reduce_mod(parse_int_poly(out) + 1, (2, 2, 1)).is_zero()


def test_witness_none_is_a_clean_result(capsys, files):
    assert run(capsys, "witness", "--", "-2 1") == (0, "none\n", "")
    # the walk of x - 2 ends after one layer, so no degree cap keeps it going
    assert run(capsys, "witness", "--degree", "1000000000000", "--", "-2 1") == (0, "none\n", "")
    assert run(capsys, "witness", "2 2 1", "--degree", "3") == (0, "none\n", "")


def test_witness_degree_bounds_what_none_means(capsys, files):
    """A "none" means none up to --degree: the least witness modulo
    2 + 2x + 2x^2 + 2x^3 + x^4 has degree 16, and modulo
    2 + 2x + ... + 2x^4 + x^5 it has degree 25."""
    assert run(capsys, "witness", "2 2 2 2 1") == (0, "none\n", "")
    code, out, err = run(capsys, "witness", "2 2 2 2 1", "--degree", "16")
    assert (code, out, err) == (
        0, "1 + x^4 + x^5 + x^8 + x^10 + x^12 + x^15 + x^16\n", "")
    assert reduce_mod(parse_int_poly(out.strip()) + 1, (2, 2, 2, 2, 1)).is_zero()
    code, out, err = run(capsys, "witness", "2 2 2 2 2 1", "--degree", "25")
    assert code == 0 and err == ""
    w = parse_int_poly(out.strip())
    assert w.degree == 25 and w.is_monic()
    assert all(c in (-1, 0, 1) for c in w.coeffs)
    assert reduce_mod(w + 1, (2, 2, 2, 2, 2, 1)).is_zero()


def test_witness_search_budget_exits_one(capsys, files):
    code, out, err = run(capsys, "witness", "1 3 1")
    assert (code, out) == (1, "")
    assert err == ("error: witness search reached 100001 carries by degree 12, "
                   "over the bound 100000; lower the degree\n")


def test_witness_json(capsys, files):
    code, payload = run_json(capsys, "witness", "2 2 1")
    assert code == 0
    assert payload == {
        "modulus": [2, 2, 1],
        "degree": 12,
        "witness": [1, 0, 1, 1, 1],
        "witness_str": "1 + x^2 + x^3 + x^4",
    }
    code, out, err = run(capsys, "witness", "--json", "--", "-2 1")
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] is None
    assert payload["witness_str"] is None


# -- infer -------------------------------------------------------------------------


def test_infer_recovers_the_matrix_from_the_machine(capsys, files):
    code, out, err = run(capsys, "infer", str(files / "a32.aut"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "chi: 1/2 + x + x^2"
    for expected in ("dim 2", "-1 1", "-1/2 0", "p: 3 + 2x", "e: (3,2)",
                     "state f -> (1,0)"):
        assert expected in lines


def test_infer_reports_failure_with_exit_one(capsys, files):
    # two copies side by side: abelian, but no one matrix places both from one anchor
    code, out, err = run(capsys, "infer", str(files / "union.aut"))
    assert code == 1
    assert out == "no matrix found\n"
    assert err == ""


def test_infer_json(capsys, files):
    code, payload = run_json(capsys, "infer", str(files / "a32.aut"))
    assert code == 0
    assert payload["found"] is True
    assert payload["chi"] == ["1/2", "1", "1"]
    assert payload["matrix"] == [["-1", "1"], ["-1/2", "0"]]
    assert payload["location"] == {
        "p": [3, 2],
        "p_str": "3 + 2x",
        "e": [3, 2],
        "assignment": {"f": [1, 0], "f0": [0, 1], "f1": [-2, -2]},
    }
    code, payload = run_json(capsys, "infer", str(files / "union.aut"))
    assert code == 1
    assert payload == {"found": False, "chi": None, "matrix": None, "location": None}


def test_infer_places_the_61_state_machine_at_its_own_chi(capsys, tmp_path):
    # outside the candidate box that infer searched before: it exited 1 here
    chi = "1/2 -1 3/2 -3/2 1"
    aut = tmp_path / "o61.aut"
    assert run(capsys, "principal", "--chi", chi, "-o", str(aut))[0] == 0
    code, out, err = run(capsys, "infer", str(aut))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "chi: 1/2 - x + 3/2x^2 - 3/2x^3 + x^4"


def test_infer_reports_an_unknown_classification_as_its_bound(capsys, files):
    code, out, err = run(capsys, "infer", str(files / "union.aut"), "--bound", "3")
    assert (code, out) == (1, "")
    assert err == ("error: abelian check of automaton 'union' reached an identity-test "
                   "closure of 4 elements, over the bound 3; raise the bound\n")


def test_infer_has_no_box_options(capsys, files):
    # the matrix is constructed, so there is no candidate box to size
    for flag in ("--max-dim", "--coeff-bound"):
        with pytest.raises(SystemExit) as exc:
            main(["infer", str(files / "a32.aut"), flag, "2"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_infer_has_no_length_option(capsys, files):
    # acceptance is exact for every word length, so no length is taken
    with pytest.raises(SystemExit) as exc:
        main(["infer", str(files / "a32.aut"), "--maxlen", "10"])
    assert exc.value.code == 2


def test_infer_propagates_non_abelian_failure(capsys, files):
    code, out, err = run(capsys, "infer", str(files / "lamplighter.aut"))
    assert code == 1
    assert err.startswith("error:")


# -- the README session ------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(text, after):
    """The first fenced block of README.md after the text `after`."""
    return text[text.index(after):].split("```\n", 2)[1]


def test_readme_session_prints_what_readme_shows(capsys, tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    (tmp_path / "a32.aut").write_text(readme_block(text, "**AUT**"))
    (tmp_path / "A.mat").write_text(readme_block(text, "**MATRIX**"))
    monkeypatch.chdir(tmp_path)
    session = readme_block(text, "A session with the bundled three-state example")
    commands = session.split("$ abmealy ")[1:]
    assert len(commands) == 6
    for command in commands:
        line, _, want = command.partition("\n")
        assert run(capsys, *shlex.split(line)) == (0, want.rstrip("\n") + "\n", ""), line


# -- error handling and usage ------------------------------------------------------


def test_missing_file_is_a_clean_error(capsys, files):
    code, out, err = run(capsys, "check", str(files / "no_such.aut"))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("embed", "A.mat", "3 2x", "1"),
         "bad polynomial '3 2x': whitespace between digits"),
        (("gtilde", "res", "A.mat", "(1,0)", "x^1 2", "0"),
         "bad polynomial 'x^1 2': whitespace between digits"),
        (("orbit", "A.mat", "--e", "(1,,0)"), "bad integer vector '(1,,0)'"),
        (("orbit", "A.mat", "--e", "(1,0)", "--start", "1,0,"), "bad integer vector '1,0,'"),
        (("verify", "a32.aut", "A.mat", "--map", "glued.map"),
         "line 1: bad polynomial '3 2x': whitespace between digits"),
    ],
)
def test_glued_digits_and_empty_entries_are_rejected(capsys, files, argv, message):
    argv = [str(files / a) if a.endswith((".aut", ".mat", ".map")) else a for a in argv]
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("coeffs, message", CHI_ERRORS)
def test_principal_chi_errors_are_the_chi_reader_errors(capsys, coeffs, message):
    assert run(capsys, "principal", "--chi", coeffs) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["check", "gamma"])
def test_group_commands_reject_a_non_invertible_machine(capsys, files, command):
    assert run(capsys, command, str(files / "sink.aut")) == (
        1, "", "error: automaton 'sink' is not invertible\n")


def test_parse_errors_carry_line_numbers(capsys, files):
    code, out, err = run(capsys, "check", str(files / "broken.aut"))
    assert code == 1
    assert err.startswith("error: line 3: bits must be 0 or 1")


def test_usage_errors_exit_with_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


# Each flag below led to a traceback, an exit 1 or a vacuous answer before
# it was checked in the parser.
OUT_OF_RANGE = [
    (("check", "a32.aut"), "--bound", 0, 1),
    (("principal", "--aut", "a32.aut"), "--bound", -1, 1),
    (("principal", "--chi", "1/2 1 1"), "--bound", 0, 1),
    (("orbit", "A.mat", "--e", "(3,2)"), "--bound", 0, 1),
    (("locate", "a32.aut", "A.mat"), "--bound", 0, 1),
    (("verify", "a32.aut", "A.mat"), "--bound", 0, 1),
    (("verify", "a32.aut", "A.mat"), "--maxlen", -3, 1),
    (("verify", "a32.aut", "A.mat"), "--maxlen", 0, 1),
    (("scc", "A.mat"), "--bound", 0, 1),
    (("witness", "2 2 1"), "--degree", -1, 0),
    (("witness", "2 2 1"), "--degree", -5, 0),
    (("infer", "a32.aut"), "--bound", 0, 1),
]


@pytest.mark.parametrize("argv,flag,value,low", OUT_OF_RANGE)
def test_numeric_flags_below_their_least_value_are_usage_errors(capsys, files, argv,
                                                                 flag, value, low):
    argv = [str(files / a) if a.endswith((".aut", ".mat")) else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, str(value)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"abmealy {argv[0]}: error: argument {flag}: must be at least {low}, got {value}")
    # the least value itself is accepted by the parser
    code, _, _ = run(capsys, *argv, flag, str(low))
    assert code in (0, 1)


def test_numeric_flags_keep_the_int_parse_error(capsys, files):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(files / "a32.aut"), "--bound", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "abmealy check: error: argument --bound: invalid int value: 'x'")


# One valid argv per subcommand and gtilde operation, for the differential test
# below; file arguments are named by their suffix, as above.
VALID_ARGV = {
    "transduce": ("a32.aut", "f", "0110"),
    "check": ("a32.aut",),
    "gamma": ("a32.aut",),
    "principal": ("--aut", "a32.aut"),
    "orbit": ("A.mat", "--e", "(3,2)"),
    "locate": ("a32.aut", "A.mat"),
    "verify": ("a32.aut", "A.mat", "--maxlen", "4"),
    "embed": ("A.mat", "3 2", "1"),
    "gtilde eq": ("A.mat", "(1,0)", "1", "(1,0)", "1"),
    "gtilde add": ("A.mat", "(1,0)", "1", "(0,1)", "1"),
    "gtilde res": ("A.mat", "(1,0)", "1", "1"),
    "scc": ("A.mat", "--json"),
    "pathpoly": ("01n",),
    "witness": ("2 2 1", "--degree", "4"),
    "infer": ("a32.aut", "--json"),
}


def differential_argvs():
    """(subcommand named, gtilde op named, argv): the top level, then per
    subcommand --help, no arguments, the valid argv short of its last token,
    an unknown option after it and before it, --bound 0, and the valid argv
    itself; then -h at the top level and per subcommand, an abbreviated
    name, and another subcommand's name as a positional value; then the
    same at gtilde's op level.  The op is None when the subcommand is not
    gtilde, and "" when no token names an op.  New cases go last, so that
    each case keeps its id."""
    yield from [("", None, ()), ("", None, ("--help",)), ("", None, ("frobnicate",)),
                ("", None, ("--bogus",)), ("gtilde", "", ("gtilde",)),
                ("gtilde", "", ("gtilde", "--help")), ("gtilde", "", ("gtilde", "mul"))]
    for name, rest in VALID_ARGV.items():
        cmd = tuple(name.split())
        op = cmd[1] if len(cmd) > 1 else None
        for argv in [cmd + ("--help",), cmd, cmd + rest[:-1], cmd + rest + ("--bogus",),
                     ("--bogus",) + cmd + rest, cmd + rest + ("--bound", "0"), cmd + rest]:
            yield cmd[0], op, argv
    yield from [("", None, ("-h",)), ("gtilde", "", ("gtilde", "-h")),
                ("", None, ("chec",)), ("", None, ("chec", "--help")), ("", None, ("chec", "-h")),
                ("transduce", None, ("transduce", "a32.aut", "check", "01")),
                ("transduce", None, ("transduce", "a32.aut", "f", "check")),
                ("gamma", None, ("gamma", "check"))]
    for name in VALID_ARGV:
        cmd = tuple(name.split())
        yield cmd[0], (cmd[1] if len(cmd) > 1 else None), cmd + ("-h",)
    eq, add = VALID_ARGV["gtilde eq"], VALID_ARGV["gtilde add"]
    yield from [("gtilde", "eq", ("gtilde", "-h", "eq")),
                ("gtilde", "add", ("gtilde", "--bogus", "add") + add),
                ("gtilde", "eq", ("gtilde", "--", "eq") + eq),
                ("gtilde", "", ("gtilde", "e") + eq),
                ("gtilde", "eq", ("gtilde", "eq", "A.mat", "--", "(1,0)", "add", "(1,0)", "1")),
                ("gtilde", "res", ("gtilde", "res", "A.mat", "(1,0)", "1", "eq"))]


DIFFERENTIAL_CASES = list(differential_argvs())


def test_the_differential_cases_cover_every_subcommand():
    assert {name.split()[0] for name in VALID_ARGV} == set(cli._COMMANDS)
    assert {name.split()[1] for name in VALID_ARGV if name.startswith("gtilde ")} == {
        "eq", "add", "res"}


@pytest.mark.parametrize("name", list(VALID_ARGV))
def test_the_valid_argvs_parse(capsys, files, name):
    """No usage error (SystemExit 2): else a dropped option would leave the
    differential test comparing two parsers that agree on rejecting it."""
    argv = [str(files / a) if a.endswith((".aut", ".mat")) else a for a in VALID_ARGV[name]]
    assert run(capsys, *name.split(), *argv)[0] in (0, 1)


# each id names the subcommand and the case's place only, so no id changes case
@pytest.mark.parametrize("command, op, argv", DIFFERENTIAL_CASES,
                         ids=[f"{c}-argv{i}" for i, (c, _, _) in enumerate(DIFFERENTIAL_CASES)])
def test_main_builds_one_subcommand_and_reads_what_the_full_parser_reads(
        capsys, monkeypatch, files, command, op, argv):
    argv = [str(files / a) if a.endswith((".aut", ".mat")) else a for a in argv]
    full_parser = cli.build_parser
    built, parsed = [], []
    real_parse_args = argparse.ArgumentParser.parse_args

    def parse_args(self, *args, **kwargs):
        parsed.append(real_parse_args(self, *args, **kwargs))
        return parsed[-1]

    def outcome(build_parser):
        parsed.clear()
        monkeypatch.setattr(cli, "build_parser", build_parser)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err, list(parsed)

    def per_command(command=None, op=None):
        built.append((command, op))
        return full_parser(command, op)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_args)
    got = outcome(per_command)
    want = outcome(lambda command=None, op=None: full_parser())
    assert got == want
    assert built == [(command, op)]


def test_python_dash_m_runs_the_tool_uninstalled(files):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "abmealy", "transduce",
                           str(files / "a32.aut"), "f", "0110"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1100\n", "")
    proc = subprocess.run([sys.executable, "-m", "abmealy", "check",
                           str(files / "a32.aut"), "--bound", "0"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: abmealy check")


def test_console_script_is_installed(files, tmp_path):
    # The suite runs uninstalled, so write the wrapper that pip generates for
    # the declared entry point and run it against this checkout's src.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    root = Path(__file__).resolve().parents[1]
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    module, _, attr = pyproject["project"]["scripts"]["abmealy"].partition(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "abmealy"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        f"sys.exit({attr}())\n")
    script.chmod(0o755)
    env = dict(os.environ,
               PATH=os.pathsep.join([str(bindir), os.environ.get("PATH", "")]),
               PYTHONPATH=str(root / "src"))

    def abmealy(*argv):
        return subprocess.run(["abmealy", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    proc = abmealy("transduce", str(files / "a32.aut"), "f", "0110")
    assert proc.returncode == 0
    assert proc.stdout == "1100\n"
    proc = abmealy("transduce", str(files / "no_such.aut"), "f", "0110")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [["pathpoly", "1n0"],
                                  ["orbit", "o823.mat", "--e", "1 0 0 0 0"]],
                         ids=["small", "large"])
def test_a_closed_stdout_exits_1_quietly(argv, unbuffered, tmp_path):
    # the read end is closed before the tool starts: a small output fails at
    # the flush, a large one (823 lines) while it is printed
    (tmp_path / "o823.mat").write_text("chi 1/2 1/2 1/2 1 1/2 1\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "abmealy", *argv], cwd=tmp_path,
                              env=env, stdout=write, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")
