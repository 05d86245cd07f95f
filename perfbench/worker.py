"""One workload process: set up, run blocks for the requested time, check.

Started by run.py.  ``--probe`` stops right after set-up (imports and input
generation) and reports the moment it got there, so the parent can time
set-up from its own clock.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import inputs
from calibrate import scale
from tracing import COUNTERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_QUERIES = 100


def make_workload(name: str, static, tracer: Tracer | None):
    if name == "cli-cold":  # its spans are the query spans, one process each
        from cliwork import CliCold

        return CliCold(ROOT)
    from libwork import Library
    from tracing import make_api

    return Library(static, make_api(tracer), make_api(None), ROOT)


def run_blocks(wl, make_block, seconds: float, min_queries: int, tracer=None, max_queries=None):
    """Run blocks until ``seconds`` of query time and ``min_queries`` are reached.

    The first block always runs whole; later ones may stop at any query, so a
    run lasts as long as asked whatever the block size, unless the workload
    sets ``whole_blocks``.  Only the queries are
    timed; the calibration, the checks and the block generation run between
    them, off the clock: the workload calibrates at the start and end of each
    block and after every ``calibration_interval_s`` of query time.  With
    ``max_queries`` exactly that many queries run.
    """
    latencies: list[list[float]] = []  # per block
    slots: list[list[str]] = []  # per block, aligned with latencies
    calibrations: list[list[float]] = []  # per block, ms
    busy: list[float] = []
    failed = qid = 0
    problems: list[tuple[str, str]] = []
    total = 0.0
    stop = False
    while not stop:
        block = make_block(len(latencies))
        wl.start_block()
        records, times, cal = [], [], [wl.calibrate()]
        since_cal = 0.0
        for q in block:
            qid += 1
            if tracer is not None:
                tracer.query = qid
            start = perf_counter()
            try:
                rec, err = wl.query(q), None
            except Exception:  # a query that raises is a failed query, not a crash
                rec, err = None, traceback.format_exc(limit=3)
            end = perf_counter()
            if tracer is not None:
                tracer.spans.append((f"query.{wl.kind(q)}", tracer.query, start, end))
            times.append(end - start)
            records.append((q, rec, err))
            total += end - start
            since_cal += end - start
            if since_cal >= wl.calibration_interval_s:
                cal.append(wl.calibrate())
                since_cal = 0.0
            if max_queries is not None:
                stop = qid >= max_queries
            elif latencies and not wl.whole_blocks:
                stop = total >= seconds and qid >= min_queries
            if stop:
                break
        else:
            stop = max_queries is None and total >= seconds and qid >= min_queries
        cal.append(wl.calibrate())
        busy.append(sum(times))
        latencies.append(times)
        slots.append([q["slot"] for q, _, _ in records])
        calibrations.append(cal)
        for q, rec, err in records:
            found = [("error", err)] if err else wl.check(q, rec)
            failed += bool(found)
            problems += found
    return {"latencies": latencies, "slots": slots, "calibrations": calibrations,
            "nominal_ms": wl.calibration_nominal_ms, "busy": busy, "failed": failed,
            "problems": problems, "blocks": len(latencies)}


def slot_samples_ms(run, scaled: bool) -> dict[str, list[float]]:
    """Each slot's latencies over the blocks of a run, in ms.

    ``scaled`` scales a block's latencies by the calibrations measured between
    that block's queries (see calibrate.py): the latency the query would have
    had on the reference core.
    """
    by_slot: dict[str, list[float]] = {}
    for slots, times, cal in zip(run["slots"], run["latencies"], run["calibrations"]):
        factor = scale(1.0, cal, run["nominal_ms"]) if scaled else 1.0
        for slot, t in zip(slots, times):
            by_slot.setdefault(slot, []).append(1000 * t * factor)
    return by_slot


def scaled_busy_s(run) -> float:
    return sum(scale(busy, cal, run["nominal_ms"]) for busy, cal in zip(run["busy"], run["calibrations"]))


def block_metrics(run, scaled: bool) -> dict:
    """Throughput and latency quantiles of the typical block.

    Every whole block holds the same slots, so each slot's median over the
    blocks describes a typical block; throughput is the slot count over the
    sum of these medians, and the quantiles are taken over them.
    """
    med_ms = [statistics.median(ts) for ts in slot_samples_ms(run, scaled).values()]
    return {
        "queries_per_s": (1000 * len(med_ms) / sum(med_ms), "1/s"),
        "query_p50_ms": (statistics.median(med_ms), "ms"),
        "query_p90_ms": (statistics.quantiles(med_ms, n=10)[-1] if len(med_ms) > 1 else med_ms[0], "ms"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    data = inputs.Inputs(args.workload, args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    wl = make_workload(args.workload, data.static, tracer)
    ready = time.monotonic()
    out = {"ready": ready, "digest": data.digest()}
    if args.probe:
        print(json.dumps(out))
        return 0

    min_queries = 1 if args.smoke else MIN_QUERIES
    run = run_blocks(wl, data.block, args.seconds, min_queries, tracer)
    problems = run["problems"] + wl.finish()
    attempted = sum(map(len, run["latencies"]))
    calibrations = [ms for cal in run["calibrations"] for ms in cal]
    out.update(
        attempted=attempted,
        block_busy_s=run["busy"],
        failed=run["failed"],
        wrong=[msg for kind, msg in problems if kind == "wrong"][:20],
        errors=sorted({msg.strip().splitlines()[-1] for kind, msg in problems if kind == "error"})[:20],
        blocks=run["blocks"],
        calibration_ms=calibrations,
    )
    if tracer is None:
        out["metrics"] = {
            **block_metrics(run, scaled=True),
            "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
            "success_ratio": (1 - run["failed"] / attempted, "ratio"),
        }
        out["slots"] = len(run["slots"][0])
        out["unscaled"] = {name: value for name, (value, _) in block_metrics(run, scaled=False).items()}
        out["unscaled"]["wall_queries_per_s"] = attempted / sum(run["busy"])
        out["slot_samples_ms"] = slot_samples_ms(run, scaled=True)
    else:
        metrics = tracer.layer_metrics()
        metrics.update({name: (0, unit) for name, unit in COUNTERS.items()})
        metrics.update(wl.counters())
        if args.workload != "cli-cold":
            from cliwork import startup_metrics

            metrics.update(startup_metrics(ROOT))
        (HERE / "out").mkdir(exist_ok=True)
        tracer.dump(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        # the same queries again, untraced, on a fresh set-up: the ratio of
        # scaled busy times is what the wrappers cost
        plain = run_blocks(make_workload(args.workload, data.static, None), data.block, 0, 0,
                           max_queries=attempted)
        metrics["trace.overhead_ratio"] = (scaled_busy_s(run) / scaled_busy_s(plain), "ratio")
        out["wrong"] += [msg for kind, msg in plain["problems"] if kind == "wrong"][:20]
        out["metrics"] = metrics
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
