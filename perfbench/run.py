"""Time-to-verdict benchmark for the omlkit command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the ``omlkit`` CLI as a user does: one subprocess per command, one
after another from this single client (a closed loop with one client).
A pass is the workload's whole command sequence (plan.py); passes repeat
until --seconds have elapsed, and a pass is never cut short.  Every
outcome is checked against the answer known from how its input was built.

A command fails when its outcome differs from the known answer, when it
crashes (a traceback or an exit status outside 0/1/2), when it is killed
at the run's time limit, or when it cannot run because an earlier command
failed.  Every failure makes the run not correct, except a crash on one of
the inputs the CLI is known to crash on (plan.Op.known_defect), which only
counts in ``failed``.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, measured
without tracing.  --trace 1 adds two traced passes (perfbench/launch.py),
the second only if it fits the run's time limit, and prints the per-layer
metrics.  The work counts of the traced passes must agree exactly, or the
run is not correct.  Inputs and traces are written under .perfbench/ in
the checkout.  The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import plan  # noqa: E402
from launch import TRACED  # noqa: E402

#: What the ``omlkit`` console script runs.
CLI = "import sys; from omlkit.cli import main; sys.exit(main())"
#: Repetitions of the input build, whose median is setup_s.
SETUP_REPS = 9
#: Traced passes per --trace 1 run, time permitting; their counts must agree.
TRACED_PASSES = 2
#: Every run ends within this many seconds; commands still running are killed.
RUN_LIMIT_S = 170


@dataclass
class Outcome:
    rc: int
    wall_s: float
    rss_kb: int
    stdout: str
    stderr: str
    timed_out: bool
    trace: dict | None = None


@dataclass
class Pass:
    wall_s: float = 0.0
    command_s: dict = field(default_factory=dict)
    rss_kb: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)   # (args, reason, makes_run_incorrect)
    traces: list = field(default_factory=list)      # (wall_s, trace) per traced command


def invoke(args, env, scratch: Path, deadline: float, trace_file: Path | None) -> Outcome:
    """Run one CLI command to completion and collect its resource usage."""
    if trace_file is None:
        argv = [sys.executable, "-c", CLI, *args]
    else:
        trace_file.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "launch.py"), str(trace_file), *args]
    out, err = scratch / "stdout", scratch / "stderr"
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    trace = None
    if trace_file is not None and trace_file.is_file():
        trace = json.loads(trace_file.read_text())
    return Outcome(proc.returncode, wall, usage.ru_maxrss, out.read_text(),
                   err.read_text(), killed.is_set(), trace)


def judge(op: plan.Op, got: Outcome):
    """(reason, makes_run_incorrect), or None when the outcome is the known answer.

    Only a crash on a known-defect input leaves the run correct.
    """
    if got.timed_out:
        return "killed at the run's time limit", True
    if "Traceback (most recent call last)" in got.stderr or got.rc not in (0, 1, 2):
        last = got.stderr.strip().splitlines()[-1:] or [f"exit {got.rc}"]
        return f"crashed: {last[0]}", not op.known_defect
    reason = op.check(got.rc, got.stdout, got.stderr)
    return (reason, True) if reason else None


def run_pass(ops, env, work: Path, deadline: float, traced: bool) -> Pass:
    result = Pass()
    for op in ops:
        if op.save is not None:
            op.save.unlink(missing_ok=True)
    start = time.perf_counter()
    for op in ops:
        result.attempted += 1
        if op.needs is not None and not op.needs.is_file():
            result.failures.append((op.args, "not run: an earlier command failed", True))
            continue
        if op.prepare is not None:
            op.prepare()
        got = invoke(op.args, env, work, deadline, work / "trace.json" if traced else None)
        metric = plan.METRIC_OF[op.command]
        result.command_s[metric] = result.command_s.get(metric, 0.0) + got.wall_s
        result.rss_kb = max(result.rss_kb, got.rss_kb)
        verdict = judge(op, got)
        if verdict is not None:
            result.failures.append((op.args, *verdict))
        elif op.save is not None:
            op.save.write_text(got.stdout)
        if traced:
            result.traces.append((got.wall_s, got.trace))
    result.wall_s = time.perf_counter() - start
    return result


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now."""
    def loop():
        start = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i % 7
        return time.perf_counter() - start
    return statistics.median(loop() for _ in range(3))


def setup(workload: str, seed: int, work: Path) -> tuple[float, dict]:
    """Build the inputs SETUP_REPS times in fresh processes; median time."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "inputs.py"), "--workload", workload,
                        "--seed", str(seed), "--out", str(work)], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times), json.loads((work / "manifest.json").read_text())


# ---------------------------------------------------------------------------
# Per-layer aggregation of traced passes
# ---------------------------------------------------------------------------


def layer_sample(p: Pass) -> tuple[dict, dict]:
    """(timings, counts) of one traced pass, summed over its commands."""
    calls, self_s, total_s = {}, {}, {}
    counts = {"simplex.lp_rows": 0, "simplex.lp_cols": 0, "states.states_found": 0,
              "rlse.check_rlse.cache_hits": 0}
    imports, wall, spanned = [], 0.0, 0.0
    for cmd_wall, trace in p.traces:
        wall += cmd_wall
        if trace is None:
            continue
        imports.append(trace["import_s"])
        spanned += trace["import_s"] + trace["stats"]["cli.main"][1]
        for name, (n, tot, own) in trace["stats"].items():
            calls[name] = calls.get(name, 0) + n
            total_s[name] = total_s.get(name, 0.0) + tot
            self_s[name] = self_s.get(name, 0.0) + own
        for name, value in trace["counters"].items():
            if name in ("simplex.lp_rows", "simplex.lp_cols"):
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value
    timings = {"cli.import_s": statistics.median(imports) if imports else 0.0,
               "bench.unspanned_share": (wall - spanned) / wall if wall else 0.0,
               "bench.traced_wall_s": p.wall_s}
    for mod, names in TRACED.items():
        for fname in names:
            name = f"{mod}.{fname}"
            counts[f"{name}.calls"] = calls.get(name, 0)
            if mod == "suite" and fname.startswith("criterion_"):
                timings[f"{name}.total_s"] = total_s.get(name, 0.0)
            else:
                timings[f"{name}.self_s"] = self_s.get(name, 0.0)
    lp = counts["simplex.maximize.calls"]
    counts["states.useful_lp_ratio"] = counts["states.states_found"] / lp if lp else 0.0
    return timings, counts


def quartiles(values) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="time-to-verdict benchmark for the omlkit CLI")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "omlkit" / "cli.py").is_file() or not spec_file.is_file():
        print("error: run from an omlkit checkout (src/omlkit and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    calib_s = calibrate()
    setup_s, manifest = setup(args.workload, args.seed, work)
    ops = plan.build(manifest, work)

    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        passes.append(run_pass(ops, env, work, deadline, traced=False))
    traced = []
    while args.trace and len(traced) < TRACED_PASSES and (
            not traced or time.monotonic() + 1.2 * traced[-1].wall_s < deadline):
        traced.append(run_pass(ops, env, work, deadline, traced=True))
    every = passes + traced

    e2e = {"setup_s": setup_s, "peak_rss_mb": max(q.rss_kb for q in passes) / 1024}
    summary = {"wall_s": quartiles([q.wall_s for q in passes])}
    for metric in sorted(set(plan.METRIC_OF.values())):
        summary[metric] = quartiles([q.command_s.get(metric, 0.0) for q in passes])
    e2e.update({name: s["median"] for name, s in summary.items()})

    failures = [f for q in every for f in q.failures]
    attempted = sum(q.attempted for q in every)
    correct = not any(fatal for _, _, fatal in failures)

    layers = {}
    if args.trace:
        samples = [layer_sample(q) for q in traced]
        counts = samples[0][1]
        if len(samples) < 2:
            print("DETERMINISM: not checked, only one traced pass fitted in the run")
        elif any(other != counts for _, other in samples[1:]):
            correct = False
            print("DETERMINISM: work counts differ between traced passes of one seed")
        else:
            print(f"DETERMINISM: work counts of {len(samples)} traced passes agree")
        timing = {name: quartiles([s[0][name] for s in samples]) for name in samples[0][0]}
        layers = {**counts, **{name: t["median"] for name, t in timing.items()}}
        layers["bench.calib_s"] = calib_s
        layers["bench.tracing_overhead"] = (
            timing["bench.traced_wall_s"]["median"] / summary["wall_s"]["median"] - 1)
        (ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"counts": counts, "timings": timing,
                        "untraced": summary}, indent=1, sort_keys=True))

    # Human-readable report, then the result line.
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} untraced pass(es), "
          f"{len(traced)} traced, {len(ops)} commands per pass, one client")
    print(f"  calib_s {calib_s:.4f} s (fixed loop; host speed)")
    for name in sorted(summary):
        s = summary[name]
        print(f"  {name:22s} median {s['median']:.4f} s  q1 {s['q1']:.4f}  "
              f"q3 {s['q3']:.4f}  n {s['n']}")
    print(f"  setup_s {setup_s:.4f} s (median of {SETUP_REPS})  "
          f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"  error_rate {len(failures) / attempted:.4f} ({len(failures)} of {attempted} "
          f"commands differ from the known answer, crashed or did not run)")
    for failure in sorted({(" ".join(a), r, w) for a, r, w in failures}):
        kind = "WRONG" if failure[2] else "FAILED (known defect)"
        print(f"  {kind}: omlkit {failure[0]}: {failure[1]}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
