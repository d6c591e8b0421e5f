"""Fuel accounting of reflected runs, pinned to recorded outcomes.

`tests/data/fuel_accounting.txt` holds the outcome kind, the
`FuelExhausted` tail, the failing step and the result of each run below,
as the machine gave them when nested runs still recursed on the host
stack.  Moving them onto the machine's own job stack must not change
where fuel runs out, at which depth, or which step a nested error names.
"""

from pathlib import Path
from unittest import mock

import prcalc.machine as machine
from prcalc.coding import num
from prcalc.diagonal import (
    antidiagonal_index, build_antidiagonal, build_eval_code,
)
from prcalc.machine import IterPending, eval_iterative, outcome_kind
from prcalc.ordinal import ord_brackets
from prcalc.surface import print_term, print_value
from prcalc.term import (
    Comp, DMinus, Id, NAT, NatV, NotC, PairV, ZeroC, eq0, lt2, pred, zero_n,
)

DATA = Path(__file__).resolve().parent / "data" / "fuel_accounting.txt"

# two coded predicates for the evaluator code, with the arguments they run on
CODED = [(Comp(NotC(), eq0), 0), (lt2, 3)]


def _line(label: str, out) -> str:
    parts = [label, outcome_kind(out)]
    for key in ("step", "reason"):
        if hasattr(out, key):
            parts.append(f"{key}={getattr(out, key)}")
    if hasattr(out, "before"):
        parts.append(f"before={ord_brackets(out.before)}")
        parts.append(f"after={ord_brackets(out.after)}")
    if hasattr(out, "tail"):
        parts.append("tail=" + ",".join(f"{i}:{ord_brackets(o)}"
                                        for i, o in out.tail))
    if hasattr(out, "value"):
        parts.append(f"value={print_value(out.value)}")
    return " ".join(parts)


def accounting_lines():
    # the reflected memos start cold, as in the recording process: an edot
    # memo hit replays its fuel without the nested step and so without its
    # descent check, and a cached cdot reading would hide a mispricing
    with mock.patch.multiple(machine, _estep_memo={}, _ccost_memo={}):
        return _lines()


def _lines():
    lines = []
    d, q = build_antidiagonal(), NatV(antidiagonal_index())
    for fuel in range(401):
        lines.append(_line(f"antidiagonal fuel={fuel}",
                           eval_iterative(d, q, fuel)))
    ev = build_eval_code()
    for phi, a in CODED:
        arg = PairV(NatV(num(phi)), NatV(a))
        for fuel in list(range(0, 300, 7)) + [10 ** 5]:
            lines.append(_line(f"coded {print_term(phi)} at {a} "
                               f"fuel={fuel}", eval_iterative(ev, arg, fuel)))
    # a measure code whose zero comes back as a pair: the descent search
    # must refuse it as a non-number
    real_eval = machine.eval_structural

    def pair_zero(u, v):
        if type(u) is ZeroC:
            return PairV(NatV(0), NatV(0))
        return real_eval(u, v)

    with mock.patch.object(machine, "eval_structural", pair_zero):
        out = eval_iterative(DMinus(zero_n, Id(NAT)), NatV(1), 100)
    lines.append(_line("measure returns a pair", out))
    # pending iterations priced at one unit: the first unfolding of one
    # breaks descent, inside a nested run of the descent search or, through
    # the evaluator code, inside a reflected step
    real_cost = machine.frame_cost

    def flat_pending(fr):
        return (1,) if type(fr) is IterPending else real_cost(fr)

    with mock.patch.object(machine, "frame_cost", flat_pending):
        out = eval_iterative(DMinus(Id(NAT), pred), NatV(3), 1000)
        lines.append(_line("mispriced pending, dminus", out))
        arg = PairV(NatV(num(Comp(eq0, pred))), NatV(2))
        out = eval_iterative(build_eval_code(), arg, 10 ** 5)
        lines.append(_line("mispriced pending, coded", out))
    return lines


def test_fuel_accounting_matches_recorded_runs():
    want = DATA.read_text().splitlines()
    got = accounting_lines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_fuel_accounting_is_the_same_with_caches_off(caches_off):
    # no edot step is replayed from the memo, so every reflected step
    # runs its own descent check; the real measure never fails one
    assert _lines() == DATA.read_text().splitlines()


if __name__ == "__main__":
    # print the lines the data file holds
    print("\n".join(accounting_lines()))
