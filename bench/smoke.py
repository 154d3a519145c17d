"""Smoke test of the benchmark itself: tiny inputs, every metric accounted for.

    python3 bench/smoke.py

Runs every workload with --tiny, untraced and traced, and asserts that each
run exits 0 with no failed command and prints exactly the metrics that
BENCHMARK.json declares, with their units.  Named metrics that are
not in the JSON line must appear in the readable report (DROPPED says why).
It also builds the whole pinned corpus, both chi of every size class, which
asserts every orbit size, and checks that the benchmark refuses to run
without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COMMANDS = ("transduce", "gamma", "check", "principal", "orbit", "scc", "verify",
            "witness", "infer")
# Named metrics that are printed in the report rather than the JSON line.
DROPPED = {
    **{f"cmd.{c}_s": "each command runs on only some workloads, and the JSON line "
                     "must carry the same metrics on every workload" for c in COMMANDS},
    **{name: "a latency distribution only on triage, the one workload with over "
             "1,000 homogeneous commands; the JSON line carries the same metrics on "
             "every workload" for name in ("op_p50_ms", "op_p99_ms")},
    "failed_frac": "0 at the seed, and an end-to-end metric must never be 0; the "
                   "JSON line carries it as `failed` over `attempted`",
    **{f"{layer}.self_s": "0 on workloads that never enter the layer; written to "
                          "the trace file and the report" for layer in
       ("mealy", "group", "exactalg", "complete", "analysis", "cli")},
}


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    printed = set()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            t0 = time.perf_counter()
            proc = run(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, proc.stderr)
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared, (workload, trace, set(got) ^ set(declared))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
                if trace == 0:
                    assert m["value"] > 0, (workload, name, m)
            printed |= {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
            assert any(line.split()[:2] == ["failed_frac", "0"]
                       for line in map(str.strip, lines[:-1]))
            print(f"ok {workload} --trace {trace} ({time.perf_counter() - t0:.1f} s)")
    missing = [name for name in DROPPED if name not in printed]
    assert not missing, f"named metrics neither in the JSON nor printed: {missing}"

    sys.path.insert(0, str(ROOT / "src"))
    import abmealy
    t0 = time.perf_counter()
    for pair in corpus.CLASSES.values():
        for g in pair:
            corpus.build(abmealy, g)        # raises on any orbit size that drifted
    corpus.build(abmealy, corpus.CHI_NO_WITNESS)
    print(f"ok corpus: every orbit size as pinned ({time.perf_counter() - t0:.1f} s)")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("lattice", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok without sources: exit", proc.returncode, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
