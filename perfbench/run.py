"""Layered benchmark for prcalc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: corpus, reflect, search, quote (see README.md beside this
file).  Load is a closed loop from one client: each round runs in a fresh
interpreter (perfbench/child.py), started one after another with no pool,
so the module-level memo tables start cold and peak memory is per round.
Every round of a run does the same seeded inputs, and their deterministic
counts and output digests must agree.

--trace 0 runs rounds until S seconds of rounds have passed (at least
two), plus set-up-only starts up to five set-ups, and reports the
end-to-end metrics as medians over the rounds.  Times are scaled to a
reference machine speed by a calibration loop run between ops (see
child.py); the detail line also has the raw seconds.  --trace 1
runs one untraced and one traced round and reports the per-layer metrics;
the traced round's wall time minus the untraced one is the tracing
overhead.  The last stdout line is the JSON result; the line before it
holds details (tail percentile, counts, digest, failure kinds).  Exits 1
without a result if a round cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("corpus", "reflect", "search", "quote")
DEADLINE_S = 170
MIN_ROUNDS = 2
MIN_SETUPS = 5
TAIL_LADDER = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)


class RoundFailed(Exception):
    pass


def spawn(workload, seed, mode, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise RoundFailed("out of time before starting a round")
    t0 = time.monotonic()
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--t0", repr(t0), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired as e:
        raise RoundFailed(f"{mode} round timed out") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{mode} round exited {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    return json.loads(lines[-1])


def tail(latencies):
    """Latency at the highest ladder percentile with at least ten ops
    beyond it; the slowest op when there are fewer than eleven."""
    ordered = sorted(latencies)
    for pct in TAIL_LADDER:
        if len(ordered) * (1 - pct / 100) >= 10:
            idx = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
            return pct, ordered[idx]
    return 100.0, ordered[-1]


def tally(rounds):
    """Ops attempted and failures by kind, over all rounds."""
    failures = Counter()
    for r in rounds:
        failures.update(r["failures"])
    return sum(r["attempted"] for r in rounds), failures


def same_outputs(rounds):
    keys = ("attempted", "failures", "counts", "digest", "steps")
    first = {k: rounds[0][k] for k in keys}
    return all({k: r[k] for k in keys} == first for r in rounds[1:])


def end_to_end(workload, seed, seconds, deadline):
    rounds, timed = [], 0.0
    while timed < seconds or len(rounds) < MIN_ROUNDS:
        if rounds and len(rounds) >= MIN_ROUNDS:
            longest = max(r["raw_wall_s"] + r["raw_setup_s"] for r in rounds)
            if time.monotonic() + 1.5 * longest > deadline:
                break
        r = spawn(workload, seed, "round", deadline)
        rounds.append(r)
        timed += r["raw_wall_s"]
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUPS:
        extra = spawn(workload, seed, "setup", deadline)
        setups.append(extra["setup_s"])
        rounds[0]["problems"] += extra["problems"]
    # every round runs the same ops, so each op's latency is its median
    # over the rounds
    latencies = [statistics.median(per_op)
                 for per_op in zip(*(r["latencies"] for r in rounds))]
    attempted, failures = tally(rounds)
    pct, tail_s = tail(latencies)

    def med(f):
        return statistics.median(f(r) for r in rounds)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (med(lambda r: r["wall_s"]), "s"),
        "ops_per_s": (med(lambda r: r["attempted"] / r["wall_s"]), "1/s"),
        "steps_per_s": (med(lambda r: r["steps"] / r["wall_s"]), "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (med(lambda r: r["peak_rss_mb"]), "MB"),
        "ok_ratio": ((attempted - sum(failures.values())) / attempted,
                     "ratio"),
    }
    detail = {
        "rounds": len(rounds), "wall_s": [r["wall_s"] for r in rounds],
        "raw_wall_s": [r["raw_wall_s"] for r in rounds],
        "cal_median_s": [r["cal_median_s"] for r in rounds],
        "setup_s": setups, "tail_percentile": pct, "tail_ops": len(latencies),
    }
    return rounds, metrics, detail


def per_layer(workload, seed, deadline):
    plain = spawn(workload, seed, "round", deadline)
    traced = spawn(workload, seed, "traced", deadline)
    layers = dict(traced["layers"])
    # both rounds at the reference speed, so machine drift between them
    # does not read as tracing cost
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {k: (v, _unit(k)) for k, v in layers.items()}
    return [plain, traced], metrics, {"untraced_wall_s": plain["wall_s"]}


def _unit(name):
    if name.endswith("_per_s") or name.endswith("_per_busy_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "prcalc")):
        print("benchmark error: no prcalc sources under src/", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    try:
        if a.trace:
            rounds, metrics, detail = per_layer(a.workload, a.seed, deadline)
        else:
            rounds, metrics, detail = end_to_end(a.workload, a.seed,
                                                 a.seconds, deadline)
    except RoundFailed as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    finally:
        # rounds remove their own scratch listings; this catches a round
        # that died before it could
        shutil.rmtree(os.path.join(ROOT, ".perfbench-work"), ignore_errors=True)
    problems = [x for r in rounds for x in r["problems"]]
    deterministic = same_outputs(rounds)
    if not deterministic:
        problems.append("rounds at one seed gave different counts or digests")
    attempted, failures = tally(rounds)
    # the only failures allowed are the ones the workloads name as the
    # program's known limits (deep input hitting the host recursion limit)
    unexpected = {k: n for k, n in failures.items() if k != "RecursionError"}
    detail.update(counts=rounds[0]["counts"], digest=rounds[0]["digest"],
                  steps=rounds[0]["steps"], failure_kinds=dict(failures),
                  deterministic=deterministic, problems=problems[:20])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems and not unexpected,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
