"""innerforms benchmark: two workloads, end-to-end metrics, a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload library --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke        # every workload, tiny, all checks, both modes

Workloads (see BENCHMARK.json for why each exists): ``library`` calls the
library in-process, mixing three parts in every block (levi: root data, Levi
analysis, Satake, Kottwitz, catalog; weyl: the Weyl layer; lj: the term
grammar and globalization); ``cli-cold`` starts one ``innerforms`` process
per query.  Every workload is a closed loop with one caller.

Each run starts fresh worker processes.  Set-up is timed from this process's
clock, from just before a worker is started to the moment it is ready for
its first query; several probe workers are set up per run and the median is
reported.  A last worker then runs the timed loop.  Every end-to-end timing
is scaled to a reference core by a calibration measured alongside it (see
calibrate.py).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same loop with spans around every library call, reports per-layer
metrics (unscaled), then replays the same blocks untraced to measure the
tracing overhead.  The last stdout line is the JSON
result; a readable table and the environment readings go to stderr, and a
full report to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.pycache_prefix = str(HERE / ".pycache")

from calibrate import PROCESS_NOMINAL_MS, process_calibration_ms, scale  # noqa: E402
from cliwork import child_env, compile_fresh  # noqa: E402
from tracing import per_layer_units  # noqa: E402

WORKLOADS = ("library", "cli-cold")
END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}
SETUP_SAMPLES = 7  # probe set-ups per run
RUN_BUDGET_S = 170  # a run must end within 180 s
REQUIRED = ("src/innerforms/__init__.py", "tests/golden/appendix_a.md",
            "tests/golden/appendix_a.json", "schemas/cli_output.schema.json")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def environment() -> dict:
    """Readings about the machine, recorded with every run (not metrics)."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def spawn_worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=child_env(ROOT), cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({done.returncode}): {' '.join(args)}\n{done.stderr[-3000:]}")
    return json.loads(lines[-1])


def check_digest(workload: str, seed: int, smoke: bool, digests: list[str]) -> bool:
    """All workers of this run, and earlier runs on this seed with the same
    input generator, saw the same inputs."""
    path = HERE / "out" / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    generator = hashlib.sha256((HERE / "inputs.py").read_bytes()).hexdigest()[:16]
    key = f"{workload}/{seed}/{'smoke' if smoke else 'full'}/{generator}"
    same = len(set(digests)) == 1 and known.get(key, digests[0]) == digests[0]
    known.setdefault(key, digests[0])
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return same


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    (HERE / "out").mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    if workload != "cli-cold":
        compile_fresh(ROOT)  # library workloads start from compiled bytecode
    # set-up is timed on probe workers, each between two calibration processes
    setups, digests, cals = [], [], [process_calibration_ms(child_env(ROOT), ROOT)]
    for _ in range(1 if smoke else SETUP_SAMPLES):
        start = time.monotonic()
        probe = spawn_worker(common + ["--probe"], deadline)
        setups.append(probe["ready"] - start)
        digests.append(probe["digest"])
        cals.append(process_calibration_ms(child_env(ROOT), ROOT))
    scaled_setups = [scale(s, cals[i:i + 2], PROCESS_NOMINAL_MS) for i, s in enumerate(setups)]
    start = time.monotonic()
    result = spawn_worker(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    run_setup = result["ready"] - start
    digests.append(result["digest"])

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    if not trace:
        metrics = {"setup_s": {"value": statistics.median(scaled_setups), "unit": "s"}, **metrics}
    correct = not result["wrong"] and check_digest(workload, seed, smoke, digests)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "calibration_ms": {"median": statistics.median(result["calibration_ms"]),
                           "min": min(result["calibration_ms"]), "max": max(result["calibration_ms"])},
        "setup_samples_s": {"unscaled": setups, "scaled": scaled_setups,
                            "calibration_ms": cals, "measured_worker": run_setup},
        "digest": digests[-1], "blocks": result["blocks"],
        "slots": result.get("slots"), "unscaled": result.get("unscaled"),
        "slot_samples_ms": result.get("slot_samples_ms"),
        "block_busy_s": result["block_busy_s"],
        "wrong": result["wrong"], "errors": result["errors"],
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics,
    }
    name = f"run-{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    (HERE / "out" / name).write_text(json.dumps(report, indent=1))
    return report


def summarize(report: dict) -> None:
    env = report["environment"]
    cal = report["calibration_ms"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"blocks={report['blocks']} slots={report['slots']} attempted={report['attempted']} failed={report['failed']} "
          f"correct={report['correct']}", file=sys.stderr)
    print(f"# python {env['python']} | {env['cpu_model']} | nproc {env['nproc']} | "
          f"load {env['loadavg']} | calibration {cal['median']:.2f} ms "
          f"[{cal['min']:.2f}, {cal['max']:.2f}]", file=sys.stderr)
    if report["unscaled"]:
        print("# unscaled: " + " ".join(f"{k}={v:.4g}" for k, v in report["unscaled"].items()),
              file=sys.stderr)
    for error in report["errors"]:
        print(f"# failed: {error}", file=sys.stderr)
    for wrong in report["wrong"]:
        print(f"# WRONG: {wrong}", file=sys.stderr)
    for name, m in report["metrics"].items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced, with every check on."""
    expected = {0: set(END_TO_END), 1: set(per_layer_units())}
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            report = run_workload(workload, 1, 0.01, trace, smoke=True)
            summarize(report)
            missing = expected[trace] ^ set(report["metrics"])
            if not report["correct"] or missing:
                bad.append(f"{workload} trace={trace}: correct={report['correct']} metrics off by {missing}")
    for line in bad:
        print(f"SMOKE FAIL {line}", file=sys.stderr)
    print("smoke ok" if not bad else "smoke failed")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an innerforms checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        report = run_workload(args.workload, args.seed, args.seconds, args.trace, smoke=False)
    except (BenchError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summarize(report)
    metrics = {name: report["metrics"][name] for name in (END_TO_END if not args.trace else per_layer_units())}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
