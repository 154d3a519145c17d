"""Benchmark of the abmealy command line tool on a pinned, seeded corpus.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout: the library is imported from
./src, never from an installed copy, and inputs are written under
.bench_work/ and removed at exit.  One process, no threads, one closed-loop
client: each command is handed to `abmealy.cli.main` (argv in, stdout and
stderr captured in memory) only after the previous one returned, in a fixed
order, with the library's memos emptied first.  Workloads and their inputs
are in `workloads.py`; every output is checked after timing.

--trace 0 sets up 3 to 9 times (import abmealy, build and write the corpus
files; setup_s is the median), then repeats the workload's command list
while the next pass is expected to end within --seconds (always at least
one pass), and reports the end-to-end metrics of BENCHMARK.json: setup_s,
the median set-up; wall_s, the median pass; and peak_rss_mb.  setup_s and
wall_s are scaled by a reference computation timed around every set-up and
between commands, so that they read as seconds on a host of fixed speed
(see `Reference`); the report also gives them unscaled (setup_raw_s,
wall_raw_s), each command's summed seconds per pass (median over passes)
and, when a pass has at least 1,000 commands, the median and
99th-percentile latency.

--trace 1 sets up once and runs an untraced pass, a traced pass and another
untraced pass, whatever --seconds says (spans around every public library
function, counters for hot primitives; see `spans.py`), then the
fixed-input layer probes of `probes.py`, and reports the per-layer metrics.
The spans go to .bench_out/trace-<workload>-<seed>.json.

Lines before the last one are a readable report; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  A failed op is a
wrong output, an unexpected exit code, an exception, or a timeout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 9, 1.0   # setup_s is their median
OP_DEADLINE_S = 60.0     # one command; a timeout counts as a failure
REF_KEYS, REF_ROUNDS = 25_000, 24   # size of the reference computation (about 25 ms)
REF_EVERY_S = 1.0        # commands between two references run at least this long
REF_NOMINAL_S = 0.025    # reported times are scaled to a reference of this length
RUN_BUDGET_S = 140.0     # commands are skipped (and failed) past this point
STARTED = time.perf_counter()


class OpTimeout(BaseException):
    """Raised from SIGALRM inside a command that ran past its deadline."""


def _alarm(signum, frame):
    raise OpTimeout()


def import_lib():
    """Import abmealy afresh from ./src; the caller times this as set-up."""
    src = ROOT / "src"
    for name in [m for m in sys.modules if m == "abmealy" or m.startswith("abmealy.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lib = importlib.import_module("abmealy")
    for layer in LAYERS:
        importlib.import_module(f"abmealy.{layer}")
    if Path(lib.__file__).resolve().parent != (src / "abmealy").resolve():
        raise SystemExit(f"error: imported abmealy from {lib.__file__}, not {src}")
    return lib


def set_up(wl, workdir: Path):
    gc.collect()
    t0 = time.perf_counter()
    lib = import_lib()
    wl.setup(lib, workdir)
    return lib, time.perf_counter() - t0


def memo_clearers(lib) -> list:
    """cache_clear of every memo in the package (functools caches); taken
    before tracing replaces the memoized functions with wrappers."""
    out = []
    for layer in LAYERS:
        for obj in vars(getattr(lib, layer)).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear) and clear not in out:
                out.append(clear)
    return out


class Reference:
    """A fixed computation of the library's kind, timed between commands.

    It hashes integer tuples and probes a dict built once, allocating
    nothing, so the heap a command leaves behind does not change it.  On a
    shared machine the speed of the host drifts by a fifth or more from one
    minute to the next; a command's seconds divided by the mean of the
    references just before and after it are nearly free of that drift.
    Multiplied by REF_NOMINAL_S they read as seconds on a host where the
    reference takes exactly that long.
    """

    def __init__(self):
        self.keys = [(i, 3 * i, i ^ 5) for i in range(REF_KEYS)]
        self.table = dict.fromkeys(self.keys)

    def seconds(self) -> float:
        table, keys = self.table, self.keys
        t0 = time.perf_counter()
        for _ in range(REF_ROUNDS):
            for key in keys:
                if key not in table:
                    raise RuntimeError("reference computation went wrong")
        return time.perf_counter() - t0


def run_op(lib, argv):
    """(exit code or failure tag, stdout, stderr, seconds) of one CLI call."""
    budget = RUN_BUDGET_S - (time.perf_counter() - STARTED)
    if budget <= 0:
        return "skipped", "", "run budget spent", 0.0
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    dt = 0.0
    try:
        signal.setitimer(signal.ITIMER_REAL, min(OP_DEADLINE_S, budget))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib.cli.main(argv)   # looked up per call, so tracing sees it
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        code = "timeout"
    except SystemExit as exc:        # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash inside the library is a failed op, not a dead run
        code = "exception"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), dt


def run_passes(lib, ops, clearers, reference, seconds: float,
               max_passes: int | None = None, tracer=None):
    """Repeat the command list while the next pass should end within seconds.

    Every command starts with the library's memos emptied by `clearers`, as
    in a fresh `abmealy` process, so no command is sped up by an earlier one.
    A record is [code, stdout, stderr, seconds, seconds / reference seconds].
    """
    passes = []
    t_start = time.perf_counter()
    while True:
        gc.collect()
        gc.freeze()          # harness objects stay out of the commands' collections
        recs = []
        segment = []
        ref = reference.seconds()
        since = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = len(passes) * len(ops) + i
            for clear in clearers:
                clear()
            recs.append(list(run_op(lib, op.argv)))
            segment.append(recs[-1])
            if time.perf_counter() - since >= REF_EVERY_S or i == len(ops) - 1:
                nxt = reference.seconds()
                for rec in segment:
                    rec.append(rec[3] / ((ref + nxt) / 2))
                ref, segment, since = nxt, [], time.perf_counter()
        gc.unfreeze()
        passes.append(recs)
        last = sum(r[3] for r in recs)
        if max_passes is not None and len(passes) >= max_passes:
            break
        if time.perf_counter() - t_start + last > seconds:
            break
        if time.perf_counter() - STARTED + last > RUN_BUDGET_S:
            break
    return passes


def check_passes(ops, passes) -> list:
    """One (op index, reason) per failed command over all passes."""
    failures = []
    for recs in passes:
        for i, (code, out, err, *_) in enumerate(recs):
            if isinstance(code, str):
                reason = f"{code}: {err.strip().splitlines()[-1] if err.strip() else ''}"
            else:
                reason = ops[i].check(code, out, err)
            if reason:
                failures.append((i, reason))
    return failures


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-len(s) * q // 100) - 1))
    return s[int(k)]


def report(name, value, unit):
    print(f"  {name:<40} {value:>14.6g} {unit}")


def emit(failures, attempted: int, metrics: dict) -> None:
    """The failure share, then the JSON result line (the last line of output)."""
    report("failed_frac", len(failures) / attempted, "1")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "abmealy" / "__init__.py").is_file():
        print(f"error: no abmealy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    wl = workloads.Workload(args.workload, args.seed, tiny=args.tiny)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            return traced_run(args, wl, workdir)
        return timed_run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _summary(args, ops, passes, failures):
    attempted = sum(len(p) for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops {attempted}  failed {len(failures)}")
    for i, reason in failures[:10]:
        print(f"  FAILED {' '.join(ops[i].argv)[:100]}: {reason}", file=sys.stderr)
    return attempted


def timed_run(args, wl, workdir) -> int:
    reference = Reference()
    setups = []          # (seconds, seconds / mean reference around the set-up)
    while len(setups) < SETUP_MIN_REPS or (
            sum(raw for raw, _ in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPS):
        before = reference.seconds()
        lib, dt = set_up(wl, workdir)
        setups.append((dt, dt / ((before + reference.seconds()) / 2)))
    ops = wl.ops(lib)
    passes = run_passes(lib, ops, memo_clearers(lib), reference, args.seconds)
    failures = check_passes(ops, passes)
    attempted = _summary(args, ops, passes, failures)

    metrics = {
        "setup_s": (statistics.median(n for _, n in setups) * REF_NOMINAL_S, "s"),
        "wall_s": (statistics.median(sum(r[4] for r in recs) for recs in passes)
                   * REF_NOMINAL_S, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        report(name, value, unit)
    report("setup_raw_s", statistics.median(raw for raw, _ in setups), "s")
    report("wall_raw_s", statistics.median(sum(r[3] for r in recs) for recs in passes), "s")
    print(f"  ({len(setups)} set-ups, {len(passes)} passes of {len(ops)} commands)")
    per_cmd = defaultdict(list)
    for recs in passes:
        sums = defaultdict(float)
        for op, rec in zip(ops, recs):
            sums[op.cmd] += rec[3]
        for cmd, total in sums.items():
            per_cmd[cmd].append(total)
    for cmd in sorted(per_cmd):
        report(f"cmd.{cmd}_s", statistics.median(per_cmd[cmd]), "s")
    if len(ops) >= 1000:     # enough homogeneous commands for a latency distribution
        lat_ms = [r[3] * 1e3 for recs in passes for r in recs if r[0] != "skipped"]
        report("op_p50_ms", statistics.median(lat_ms), "ms")
        report("op_p99_ms", percentile(lat_ms, 99), "ms")
        print(f"  ({len(lat_ms)} latency samples)")
    emit(failures, attempted, metrics)
    return 0


def traced_run(args, wl, workdir) -> int:
    lib, setup_s = set_up(wl, workdir)
    ops = wl.ops(lib)
    clearers = memo_clearers(lib)
    reference = Reference()
    plain = run_passes(lib, ops, clearers, reference, 0, max_passes=1)
    tracer = Tracer()
    tracer.install({layer: getattr(lib, layer) for layer in LAYERS})
    try:
        traced = run_passes(lib, ops, clearers, reference, 0, max_passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    plain += run_passes(lib, ops, clearers, reference, 0, max_passes=1)
    passes = plain + traced
    failures = check_passes(ops, passes)
    attempted = _summary(args, ops, passes, failures)

    # untraced passes before and after the traced one, so drift cancels
    plain_s = statistics.mean(sum(r[3] for r in recs) for recs in plain)
    traced_s = sum(r[3] for r in traced[0])
    self_s = tracer.self_times()
    counts = tracer.counts
    has_private = hasattr(lib.group, "_identity_test_coeffs")
    metrics = {
        "cli.overhead_s": (self_s["cli"], "s"),
        "trace.slowdown": (traced_s / plain_s, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
        "complete.residual_vector_calls": (counts["complete.residual_vector"], "count"),
        "complete.locate_calls": (counts["complete.locate"], "count"),
        "complete.orbit_vectors": (counts["complete.orbit.size"], "count"),
        "complete.verify_words": (counts["complete.transduce_vector"], "count"),
        "group.identity_tests": (counts["group._identity_test_coeffs" if has_private
                                        else "group.identity_test"], "count"),
        "group.principal_states": (counts["group.build_principal.size"], "count"),
    }
    print(f"untraced pass {plain_s:.4f} s (mean of 2), traced pass {traced_s:.4f} s, "
          f"tracing overhead "
          f"{100 * (traced_s / plain_s - 1):.1f}%  (setup {setup_s:.4f} s)")
    print("self time by layer, traced pass:")
    for layer in LAYERS:
        report(f"{layer}.self_s", self_s[layer], "s")
    print("busiest spans (calls, total s):")
    for name, (calls, total) in sorted(tracer.by_name().items(),
                                       key=lambda kv: -kv[1][1])[:12]:
        print(f"  {name:<40} {calls:>8} {total:>12.6f}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json", {
        "workload": args.workload, "seed": args.seed, "untraced_s": plain_s,
        "traced_s": traced_s, "ops": [op.argv for op in ops]})

    print("per-layer metrics, traced pass:")
    for name, (value, unit) in metrics.items():
        report(name, value, unit)
    print("per-layer metrics, fixed-input probes (memo state):")
    for name, (value, unit, memo) in probes.run_all(lib, clearers).items():
        report(name, value, f"{unit} ({memo})")
        metrics[name] = (value, unit)
    emit(failures, attempted, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
