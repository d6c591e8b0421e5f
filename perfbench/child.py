"""One workload round in a fresh interpreter; started by run.py.

    python3 perfbench/child.py --workload NAME --seed N --t0 T --mode MODE

MODE is `setup` (build the inputs and stop), `round` (build, then run
every op once with tracing off) or `traced` (the same with spans,
followed by the replays that split CLI time into library layers).  T is
the parent's `time.monotonic()` just before the start, so `setup_s`
covers interpreter start, imports and input generation.  Times are
reported both raw and scaled to the reference speed (see `run_round`).
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import (  # noqa: E402
    Tracer, Untraced, layer_of, self_times, span_report,
)
from workloads import WORKLOADS, TankLog  # noqa: E402

LAYERS = ["surface", "term", "ordinal", "machine", "coding", "partial",
          "diagonal", "gen", "cli"]
# calibration: a loop of CAL_LOOPS iterations takes about CAL_REF_S on an
# uncontended core of the machine this was tuned on
CAL_LOOPS = 10_000
CAL_REPEATS = 5
CAL_REF_S = 0.0008
CAL_EVERY_S = 0.2
OUTCOMES = ["Done", "FuelExhausted", "NestedFuelExhausted",
            "DescentViolation", "StatViolation", "EvalFailure"]


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that never calls prcalc:
    the fastest of CAL_REPEATS tries, so a momentary stall of a few
    milliseconds does not count as the machine's speed."""
    best = float("inf")
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def run_round(wl, tr, tanks):
    """Every op once, with its output check.

    The calibration loop runs before the first op and after every stretch
    of about CAL_EVERY_S seconds of ops.  A stretch's times are scaled by
    CAL_REF_S over the mean of the two calibrations around it, so they
    read as seconds at the reference speed; calibration time is not
    counted.  Returns scaled wall time, raw wall time, scaled op
    latencies, failure kinds and the calibration times.
    """
    tr.phase = "round"
    latencies, failures = [], Counter()
    cals = [calibrate()]
    wall = raw_wall = stretch = 0.0
    pending = []
    mark = tanks.mark()
    last = wl.n_ops - 1
    for i in range(wl.n_ops):
        tr.op = i
        t0 = time.perf_counter()
        try:
            result = wl.run(i)
        except Exception as e:  # counted as a failed op, never expected
            pending.append(time.perf_counter() - t0)
            failures[f"exception:{type(e).__name__}"] += 1
            wl.problem(i, repr(e)[:200])
        else:
            pending.append(time.perf_counter() - t0)
            kind = wl.check(i, result)
            if kind is not None:
                failures[kind] += 1
        if i == last:
            wl.finish()
        stretch += time.perf_counter() - t0
        if stretch >= CAL_EVERY_S or i == last:
            cals.append(calibrate())
            scale = CAL_REF_S / ((cals[-2] + cals[-1]) / 2)
            latencies += [x * scale for x in pending]
            wall += stretch * scale
            raw_wall += stretch
            stretch, pending = 0.0, []
    wl.counts["machine.steps"] = tanks.steps_since(mark)
    return wall, raw_wall, latencies, failures, cals


def layer_metrics(wl, tr, tanks, raw_wall):
    """Per-layer figures from the spans of set-up, round and replay, in raw
    seconds like the spans themselves."""
    tr.phase = "replay"
    tr.op = None
    mark = tanks.mark()
    wl.replay()
    replay_steps = tanks.steps_since(mark)
    spans = tr.spans
    rep = span_report(spans)
    c = wl.counts

    def busy(name):
        return rep[name]["busy_s"] if name in rep else 0.0

    def calls(name):
        return rep[name]["calls"] if name in rep else 0

    def ratio(num, den):
        return num / den if den else 0.0

    # self time per layer over the round and the replays; the CLI's own
    # share is its span time minus the replayed library time
    own = self_times(spans)
    layer_self = Counter()
    round_top = replay_top = 0.0
    for i, (name, start, end, parent, _op, phase, _err) in enumerate(spans):
        if phase == "setup":
            continue
        layer_self[layer_of(name)] += own[i]
        if parent < 0:
            if phase == "round":
                round_top += end - start
            else:
                replay_top += end - start
    layer_self["cli"] -= replay_top
    cli_self = {sub: busy(f"cli.{sub}") - replay_top if calls(f"cli.{sub}") else 0.0
                for sub in ("corpus", "liar")}
    accounted = sum(layer_self.values())
    recursion_failures = sum(r["errors"].get("RecursionError", 0)
                             for name, r in rep.items()
                             if layer_of(name) == "surface")
    coding_busy = busy("coding.num") + busy("coding.from_num")
    mu_calls = c["partial.mu_search.calls"]
    m = {
        "surface.parse_term.calls": calls("surface.parse_term"),
        "surface.parse_term.busy_s": busy("surface.parse_term"),
        "surface.parse_term.chars_per_s": ratio(
            c["surface.chars_parsed"] + c["replay.surface.chars_parsed"],
            busy("surface.parse_term")),
        "surface.print_term.busy_s": busy("surface.print_term"),
        "surface.recursion_failures": recursion_failures,
        "term.typecheck.calls": calls("term.typecheck"),
        "term.typecheck.busy_s": busy("term.typecheck"),
        "term.eval_structural.calls": calls("term.eval_structural"),
        "term.eval_structural.busy_s": busy("term.eval_structural"),
        "machine.eval_iterative.calls": calls("machine.eval_iterative"),
        "machine.eval_iterative.busy_s": busy("machine.eval_iterative"),
        "machine.steps": c["machine.steps"],
        "machine.steps_per_busy_s": ratio(replay_steps,
                                          busy("machine.eval_iterative")),
        "ordinal.descent_check.busy_s": busy("ordinal.descent_check"),
        "ordinal.entries": c["replay.ordinal.entries"],
        "coding.num.busy_s": busy("coding.num"),
        "coding.from_num.busy_s": busy("coding.from_num"),
        "coding.calls": calls("coding.num") + calls("coding.from_num"),
        "coding.bits": c["coding.bits"],
        "coding.bits_per_s": ratio(c["coding.bits"], coding_busy),
        "partial.cci_run.busy_s": busy("partial.cci_run"),
        "partial.cci_run.steps": c["partial.cci_run.steps"],
        "partial.par_apply.busy_s": busy("partial.par_apply"),
        "partial.mu_search.busy_s": busy("partial.mu_search"),
        "partial.mu_search.evals": c["partial.mu_search.evals"],
        "partial.mu_search.hit_ratio": ratio(c["partial.mu_search.hits"],
                                             mu_calls),
        "partial.fuel_exhausted": c["partial.fuel_exhausted"],
        "diagonal.build.busy_s": busy("diagonal.build"),
        "diagonal.run_liar.busy_s": busy("diagonal.run_liar"),
        "diagonal.fuel_spent": c["diagonal.fuel_spent"],
        "diagonal.fuel_per_busy_s": ratio(c["replay.diagonal.fuel_spent"],
                                          busy("diagonal.run_liar")),
        "gen.busy_s": sum(r["busy_s"] for name, r in rep.items()
                          if layer_of(name) == "gen"),
        "cli.corpus.self_s": cli_self["corpus"],
        "cli.liar.self_s": cli_self["liar"],
        "trace.spans": len(spans),
        "trace.accounted_s": accounted,
        "trace.wall_s": raw_wall,
        "trace.unaccounted_s": raw_wall - round_top,
    }
    for kind in OUTCOMES:
        m[f"machine.outcomes.{kind}"] = c[f"replay.machine.outcomes.{kind}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "round", "traced"),
                   required=True)
    a = p.parse_args()
    tanks = TankLog()
    tr = Tracer() if a.mode == "traced" else Untraced()
    wl = WORKLOADS[a.workload](ROOT, a.seed, tr, tanks)
    try:
        raw_setup = time.monotonic() - a.t0
        if a.mode == "setup":
            out = {"setup_s": raw_setup * CAL_REF_S / calibrate()}
        else:
            wall, raw_wall, latencies, failures, cals = run_round(wl, tr,
                                                                  tanks)
            out = {
                "setup_s": raw_setup * CAL_REF_S / cals[0],
                "raw_setup_s": raw_setup, "wall_s": wall,
                "raw_wall_s": raw_wall, "cal_median_s": statistics.median(cals),
                "latencies": latencies, "attempted": wl.n_ops,
                "failures": dict(failures), "steps": wl.step_count(),
                "digest": wl.digest,
                "counts": {k: v for k, v in wl.counts.items()
                           if not k.startswith("replay.")},
            }
            if a.mode == "traced":
                out["layers"] = layer_metrics(wl, tr, tanks, raw_wall)
        out["problems"] = wl.problems[:20]
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        wl.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
