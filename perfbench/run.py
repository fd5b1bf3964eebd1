"""Benchmark of the evaluation pipeline: one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload exact_cold --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` next to this directory. A run sets
up its inputs three times (``setup_s`` is the import time plus the
median set-up), then repeats timed calls for ``--seconds`` seconds, then
checks every call's cells for correctness. With ``--trace 0`` it reports
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` every
call runs twice on the same inputs, untraced and traced, and the run
reports the per-layer metrics plus the tracing overhead. Human-readable
lines come first; the last line of standard output is one JSON object.
A full report (and, when tracing, every span) is written under
``.perfbench-out/``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def import_library():
    """Import the library from this checkout's ``src/``; exit 2 if absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
        import tracer
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return tracer, workloads


def git_sha() -> "str | None":
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core as highs

        highs_version = (
            f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
            f"{highs.HIGHS_VERSION_PATCH}"
        )
    except (ImportError, AttributeError):
        highs_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_call(workload, state, rep, scratch: Path) -> dict:
    """One timed call; failures are counted, not raised."""
    cache_dir = tempfile.mkdtemp(dir=scratch) if workload.cold else None
    progress = []

    def on_cell(done, total, cell):
        progress.append((time.perf_counter(), cell))

    start = time.perf_counter()
    try:
        result = workload.call(state, rep, cache_dir, on_cell)
        error = None
    except Exception:
        result, error = None, traceback.format_exc()
    wall = time.perf_counter() - start
    if cache_dir is not None:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "rep": rep,
        "result": result,
        "error": error,
        "wall_s": wall,
        "first_cell_s": progress[0][0] - start if progress else wall,
        "progress": progress,
        "cells": workload.cells_per_call(state, rep),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer_mod, workloads_mod = import_library()
    import_s = time.perf_counter() - PROCESS_START
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads_mod.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads_mod.WORKLOADS[args.workload](args.seed)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=out_dir, prefix="scratch-"))
    try:
        return run(args, spec, workload, tracer_mod, import_s, scratch, out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, spec, workload, tracer_mod, import_s, scratch, out_dir) -> int:
    tracer = tracer_mod.Tracer() if args.trace else None

    # -- set-up, several times; the last one's inputs are used ----------
    setups, setup_times = [], []
    for repeat in range(SETUP_REPEATS):
        traced = tracer is not None and repeat == SETUP_REPEATS - 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            setups.append(workload.setup(scratch))
        finally:
            setup_times.append(time.perf_counter() - start)
            if traced:
                tracer.remove()
    state = setups[-1]
    setup_ok = workload.setups_agree(setups)

    # -- timed calls for --seconds ---------------------------------------
    # A call starts only if one more of the last call's length still fits,
    # so a run ends near --seconds instead of overshooting by a call.
    calls, traced_calls = [], []
    begin = time.perf_counter()
    rep = 0
    last = 0.0
    while rep == 0 or time.perf_counter() - begin + last <= args.seconds:
        started = time.perf_counter()
        calls.append(timed_call(workload, state, rep, scratch))
        if tracer is not None:
            tracer.call = rep
            tracer.install()
            try:
                traced_calls.append(timed_call(workload, state, rep, scratch))
            finally:
                tracer.remove()
                tracer.call = None
        last = time.perf_counter() - started
        rep += 1

    # -- correctness: a call or check that raises fails all its cells ----
    attempted = failed = 0
    for record in calls + traced_calls:
        attempted += record["cells"]
        if record["error"] is None:
            try:
                failed += workload.check(state, record["rep"], record["result"])
                continue
            except Exception:
                record["error"] = traceback.format_exc()
        print(record["error"], file=sys.stderr)
        failed += record["cells"]
    extra_attempted, extra_failed = workload.final_check()
    attempted += extra_attempted
    failed += extra_failed
    correct = failed == 0 and setup_ok

    report = {"provenance": provenance(args), "setup_times_s": setup_times,
              "import_s": import_s}
    report["calls"] = [
        {k: v for k, v in c.items() if k not in ("result", "progress")}
        for c in calls + traced_calls
    ]

    if tracer is None:
        walls = [c["wall_s"] for c in calls if c["error"] is None]
        cells = [c["cells"] for c in calls if c["error"] is None]
        values = {
            "cells_per_s": sum(cells) / sum(walls) if walls else 0.0,
            "first_cell_s": median(c["first_cell_s"] for c in calls),
            "setup_s": import_s + median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        wanted = spec["end_to_end"]
    else:
        values, selfcheck = layer_values(tracer_mod, tracer, calls,
                                         traced_calls)
        correct = correct and selfcheck
        report["spans"] = tracer.to_records()
        wanted = spec["per_layer"]

    # A metric no successful call produced reads 0 (the run is then
    # already marked incorrect).
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    report.update(metrics=metrics, attempted=attempted, failed=failed,
                  correct=correct)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1, default=str))

    print("provenance:", json.dumps(report["provenance"]))
    print(f"{args.workload}: {len(calls)} timed calls, closed loop, 1 client; "
          f"size: {workload.size}")
    for metric, entry in metrics.items():
        print(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'failed_frac':28s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} cells)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_values(tracer_mod, tracer, calls, traced_calls):
    """Per-layer medians over the traced calls, plus the self-check."""
    per_call = [
        tracer_mod.call_metrics(tracer, c["rep"], c["wall_s"], c["progress"])
        for c in traced_calls
        if c["error"] is None
    ]
    if not per_call:
        return {}, False
    values = {key: median(m[key] for m in per_call) for key in per_call[0]}
    values.update(tracer_mod.setup_metrics(tracer))
    modes = [
        c["result"].mode_counts()
        for c in traced_calls
        if hasattr(c["result"], "mode_counts")
    ]
    for key, mode in (("replay.cold_builds", "cold"),
                      ("replay.warm_steps", "warm"),
                      ("replay.cache_steps", "cache")):
        values[key] = median(m[mode] for m in modes) if modes else 0
    untraced = {c["rep"]: c["wall_s"] for c in calls}
    values["trace.wall_s"] = median(c["wall_s"] for c in traced_calls)
    values["trace.untraced_wall_s"] = median(untraced.values())
    values["trace.overhead_s"] = median(
        c["wall_s"] - untraced[c["rep"]] for c in traced_calls
    )
    worst = max(m["trace.unaccounted_frac"] for m in per_call)
    selfcheck = (
        tracer.nesting_violations() == 0
        and worst <= tracer_mod.ACCOUNTING_TOLERANCE
    )
    values["trace.unaccounted_frac"] = worst
    return values, selfcheck


if __name__ == "__main__":
    sys.exit(main())
