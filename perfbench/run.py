"""avgproc benchmark: one workload, one seed, fresh interpreters throughout.

    python3 perfbench/run.py --workload float-asymptotics --seed 7 --seconds 38 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Every repetition of the workload body runs in its own interpreter
(``child.py``), so the package's caches start cold each time, and BLAS and
OpenMP threads are capped at the number of usable cores.

``--trace 0`` repeats the body (at least once) while the next repetition
is expected to end within ``--seconds`` and reports the medians of the
end-to-end metrics. ``--trace 1`` runs
the body once untraced and once with spans around the public functions of
every layer, and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is the JSON result; the line before it
records the seed, the machine, the thread cap and the raw samples.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("exact-identities", "float-asymptotics", "mc-d1-many-trials")
SETUP_SAMPLES = 3        # interpreter start-ups measured per run, at least
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(env: dict, *args: str) -> tuple[dict, float]:
    """Run child.py; returns its JSON line and its set-up time in seconds."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workdir", str(OUT), *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)}: no result within {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return result, result["ready"] - spawned


def machine(threads: int) -> dict:
    return {"cpu_count": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "thread_cap": threads, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "platform": platform.platform()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description="avgproc benchmark (one workload per run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="workload seed (default: acceptance.DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=38.0,
                    help="repeat the untraced body within this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "avgproc" / "__init__.py").is_file():
        print(f"error: no avgproc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    body = ["--workload", args.workload]
    if args.seed is not None:
        body += ["--seed", str(args.seed)]

    try:
        reps, setups, took = [], [], []
        deadline = time.monotonic() + args.seconds
        # repeat while the next repetition is expected to end by the deadline
        while not reps or (not args.trace
                           and time.monotonic() + statistics.median(took) <= deadline):
            start = time.monotonic()
            result, setup = run_child(env, *body)
            took.append(time.monotonic() - start)
            reps.append(result)
            setups.append(setup)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{reps[0]['seed']}.json"
            traced, _ = run_child(env, *body, "--trace", "1", "--spans", str(spans_path))
            reps.append(traced)
        else:
            while len(setups) < SETUP_SAMPLES:
                setups.append(run_child(env, "--probe")[1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = [c for rep in reps for c in rep["checks"]]
    failed = [name for name, ok in checks if not ok]
    walls = [rep["wall_s"] for rep in reps]
    if args.trace:
        metrics = dict(reps[-1]["layers"])
        metrics["bench.trace_overhead_s"] = metric(walls[1] - walls[0], "s")
    else:
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        }
    info = {"workload": args.workload, "seed": reps[0]["seed"], "trace": args.trace,
            "machine": machine(threads), "wall_s_samples": walls,
            "cpu_s_samples": [r["cpu_s"] for r in reps], "setup_s_samples": setups,
            "peak_rss_mb_samples": [r["peak_rss_mb"] for r in reps],
            "fail_frac": len(failed) / len(checks), "failed_checks": failed}
    if args.trace:
        info["computed_metrics"] = reps[-1]["computed_metrics"]
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(info))
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
