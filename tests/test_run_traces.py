"""Machine traces, pinned to recorded runs.

`tests/data/run_traces.txt` holds the `machine.trace` records and the
outcome of each run below: one `run` line naming it, one line per fired
step, and one `outcome` line.  The restrict3 run pushes all five frame
kinds, so the file pins how each frame renders, its cost in the
complexity column, and the fuel tails of a top-level and of a nested
exhaustion.
"""

from pathlib import Path

from prcalc.diagonal import antidiagonal_index, build_antidiagonal
from prcalc.machine import DEFAULT_FUEL, trace
from prcalc.surface import parse_term, parse_value
from prcalc.term import NatV

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "run_traces.txt"


def _corpus(name: str):
    return parse_term((ROOT / "corpus" / name).read_text())


def trace_lines():
    runs = [
        ("restrict3.pr at 1", _corpus("restrict3.pr"), parse_value("1"),
         DEFAULT_FUEL),
        ("restrict3.pr at 1 fuel=12", _corpus("restrict3.pr"),
         parse_value("1"), 12),
        ("cyl_succ.pr at (2,3)", _corpus("cyl_succ.pr"), parse_value("(2,3)"),
         DEFAULT_FUEL),
        ("antidiagonal at its index fuel=2000", build_antidiagonal(),
         NatV(antidiagonal_index()), 2000),
    ]
    lines = []
    for label, t, v, fuel in runs:
        records, out = trace(t, v, fuel)
        lines.append(f"run {label}")
        lines.extend(records)
        lines.append(f"outcome {out!r}")
    return lines


def test_traces_match_recorded_runs():
    want = DATA.read_text().splitlines()
    got = trace_lines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    # print the lines the data file holds
    print("\n".join(trace_lines()))
