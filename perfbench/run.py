"""End-to-end and per-layer benchmark of the abcf CLI paths.

    python3 perfbench/run.py --workload verify-short --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``abcf`` from its
``src/``.  One closed-loop client runs the workload's item list (see
``bench_workloads.py``) back to back in this process, through
``abcf.cli.main(argv)``, until ``--seconds`` have passed; every item's
output is checked against a hand-written verdict.  Set-up (import of
``abcf.cli`` with its scipy imports and a first small call) is timed in
fresh interpreters.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced passes with passes under cProfile and
reports the per-layer metrics (``bench_layers.py``), per pass.

Standard output: one line with the full report (environment header,
per-item results and work counts, every metric), then one line with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import bench_layers
import bench_workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_s": "s",
    "item_max_s": "s",
    "peak_rss_mb": "MB",
}

#: run in a fresh interpreter: import, then one small call of the workload
SETUP_CHILD = """
import contextlib, io, sys, time
t0 = time.perf_counter()
import abcf.cli
with contextlib.redirect_stdout(io.StringIO()):
    status = abcf.cli.main(sys.argv[1:])
elapsed = time.perf_counter() - t0
if status:
    sys.exit(status)
print(elapsed)
"""


def import_program() -> None:
    """Import abcf from this checkout's src/, and nothing else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import abcf.cli  # noqa: F401

    origin = Path(sys.modules["abcf"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"abcf imported from {origin}, not from {SRC}")


def time_setup(warmup_argv: list[str], samples: int) -> list[float]:
    env = {k: v for k, v in os.environ.items() if k != "ABCF_SEED"}
    env["PYTHONPATH"] = str(SRC)
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, *warmup_argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )  # fmt: skip
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_pass(items: list, probe: bench_layers.Probe, hooks: dict) -> dict:
    """One pass over the item list; a failing item is recorded, not raised."""
    results = []
    t_pass = time.perf_counter()
    with probe.installed(hooks):
        for item in items:
            probe.counts = Counter()
            t0 = time.perf_counter()
            try:
                obs = item.run()
                elapsed = time.perf_counter() - t0
                problems = item.check(obs, item.expected)
            except Exception as exc:  # an item that raises counts as failed
                elapsed = time.perf_counter() - t0
                problems = [f"{type(exc).__name__}: {exc}"]
            results.append({
                "item": item.name, "seconds": elapsed,
                "ok": not problems, "problems": problems, "work": dict(probe.counts),
            })  # fmt: skip
    return {"seconds": time.perf_counter() - t_pass, "items": results}


def run_loop(items: list, seconds: float, trace: bool) -> dict:
    """Passes back to back until ``seconds`` have passed (at least one of
    each kind); with ``trace``, every second pass runs under cProfile."""
    probe = bench_layers.Probe()
    plain_hooks = bench_layers.COUNT_HOOKS
    traced_hooks = {**plain_hooks, **bench_layers.TRACE_HOOKS}
    profile = cProfile.Profile()
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or (trace and not traced) or time.perf_counter() - start < seconds:
        if trace and len(traced) < len(plain):
            profile.enable()
            traced.append(run_pass(items, probe, traced_hooks))
            profile.disable()
        else:
            plain.append(run_pass(items, probe, plain_hooks))
    return {"plain": plain, "traced": traced, "profile": profile if traced else None}


def end_to_end(plain: list, setup: list[float]) -> dict[str, float]:
    # each item's median over passes; with few items, a median over the
    # pooled samples would sit between two items and swing with either
    item_medians = [statistics.median(t) for t in zip(*[[r["seconds"] for r in p["items"]] for p in plain])]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["seconds"] for p in plain),
        "item_p50_s": statistics.median(item_medians),
        "item_max_s": max(item_medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(loop: dict) -> dict[str, float]:
    traced = loop["traced"]
    counts = Counter()
    for p in traced:
        for r in p["items"]:
            counts.update(r["work"])
    overhead = statistics.median(p["seconds"] for p in traced) / statistics.median(
        p["seconds"] for p in loop["plain"]
    ) - 1.0
    table = bench_layers.LayerTable(pstats.Stats(loop["profile"]))
    return bench_layers.layer_metrics(table, counts, len(traced), overhead)


def _git_commit() -> str:
    """HEAD read from .git without running git (a plain checkout has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, one client, no threads",
    }


def bench(workload, seconds: float, trace: bool, setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """Set up, run and check one workload; return (details, result line)."""
    setup = time_setup(workload.warmup_argv, setup_samples)
    bench_workloads.cli(workload.warmup_argv)
    loop = run_loop(workload.items, seconds, trace)

    passes = loop["plain"] + loop["traced"]
    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(not r["ok"] for p in passes for r in p["items"])
    if trace:
        values, units = per_layer(loop), bench_layers.PER_LAYER_UNITS
    else:
        values, units = end_to_end(loop["plain"], setup), END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    details = {
        "setup_samples_s": setup,
        "passes": [{"traced": i >= len(loop["plain"]), **p} for i, p in enumerate(passes)],
        "item_samples": sum(len(p["items"]) for p in loop["plain"]),
        "fail_frac": failed / attempted,
    }
    return details, {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if "ABCF_SEED" in os.environ:  # the CLI lets it override every --seed
        sys.stderr.write("ABCF_SEED is set; unset it so the workload seed is the one used\n")
        return 1
    try:
        import_program()
    except ImportError as exc:
        sys.stderr.write(f"cannot import abcf from {SRC}: {exc}\n")
        return 1

    workload = bench_workloads.build(args.workload, args.seed)
    details, result = bench(workload, args.seconds, bool(args.trace))
    print(json.dumps({"environment": environment(args), **details, "metrics": result["metrics"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
