"""Names the benchmark harness uses must stay in the library.

The harness under bench/ reaches the library only through attributes of the
imported package (`lib.parse_automaton`, `lib.cli.main`, ...).  This test
reads every such attribute chain from the harness sources and resolves it,
so a change that renames or removes one fails here rather than in a
benchmark run.
"""

import ast
import importlib
import re
from pathlib import Path

import abmealy

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
LIB_ATTRIBUTE = re.compile(r"\blib((?:\.[A-Za-z_]\w*)+)")
LAYERS = ("mealy", "group", "exactalg", "complete", "analysis", "cli")


def bench_chains() -> set[str]:
    return {
        m.group(1)[1:]
        for path in sorted(BENCH.glob("*.py"))
        for m in LIB_ATTRIBUTE.finditer(path.read_text(encoding="utf-8"))
    }


def test_bench_library_names_resolve():
    for layer in LAYERS:  # the harness imports every layer before it runs
        importlib.import_module(f"abmealy.{layer}")
    chains = bench_chains()
    assert {"parse_automaton", "cli.main"} <= chains  # the scan found the harness
    missing = []
    for chain in sorted(chains):
        obj = abmealy
        for attr in chain.split("."):
            if not hasattr(obj, attr):
                missing.append(chain)
                break
            obj = getattr(obj, attr)
    assert missing == []


def test_identity_test_counter_has_its_target():
    # the harness's group.identity_tests counter wraps this private name and
    # falls back to identity_test, which undercounts, when it is missing
    import abmealy.group

    assert callable(abmealy.group._identity_test_coeffs)


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so runtime invariants must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "abmealy").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
