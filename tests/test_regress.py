"""The machine's regress check: a suspended job that equals one of its
ancestors never returns, so the run stops at once with the outcome it
would have reached when its fuel ran out.  Each run here is made with
the check on and off (`regress_off`), and the two must agree."""

from pathlib import Path

import pytest

import prcalc.machine as machine
from prcalc.coding import num, quote
from prcalc.diagonal import (
    antidiagonal_index, build_antidiagonal, eval_code_agreement,
    liar_report_lines, run_liar,
)
from prcalc.machine import Done, NestedFuelExhausted, eval_iterative
from prcalc.term import (
    Comp, DMinus, EDot, Id, NAT, NN, NatV, PairV, Succ, pred,
)

from test_fuel_accounting import CODED

DATA = Path(__file__).resolve().parent / "data"

N = NatV
P = PairV

# the antidiagonal at its own index: every fuel up to 400, then a stride
ANTIDIAGONAL_FUELS = list(range(401)) + list(range(997, 10 ** 4 + 1, 1499))

# the descent-search and reflected-step runs of test_machine, with fuels
REFLECTED = [
    (DMinus(Id(NAT), pred), N(3), range(120)),
    (DMinus(Id(NAT), pred), N(0), [1000]),
    (DMinus(Id(NAT), Id(NAT)), N(1), [500]),
    (Comp(DMinus(Id(NAT), pred), Succ()), N(3), [3, 10, 40, 1000]),
    (EDot(), P(N(num(quote(Succ()))), N(4)), [1, 2, 100]),
    (EDot(), P(N(num(quote(DMinus(Id(NAT), pred)))), N(3)), range(0, 100, 3)),
    (EDot(), P(N(num(Id(NAT))), N(7)), [100]),
    (EDot(), P(N(num(Id(NN))), N(0)), [100]),
    (Comp(EDot(), Comp(Id(NN), Id(NN))),
     P(N(num(quote(DMinus(Id(NAT), pred)))), N(3)), [5, 6, 30, 1000]),
]


@pytest.fixture
def fired(monkeypatch):
    """The stack index of each job the check has matched so far."""
    out = []
    real = machine._repeats

    def spy(jobs):
        hit = real(jobs)
        if hit:
            out.append(len(jobs) - 1)
        return hit

    monkeypatch.setattr(machine, "_repeats", spy)
    return out


def _agree(regress_off, fired, run, *args):
    """run(*args) with the check on and off: the same outcome, and no
    match in a run that ends in Done.  Returns the outcome."""
    before = len(fired)
    on = run(*args)
    assert on == regress_off(run, *args)
    if isinstance(on, Done):
        assert len(fired) == before
    return on


def test_antidiagonal_at_every_fuel(regress_off, fired):
    d, q = build_antidiagonal(), N(antidiagonal_index())
    for fuel in ANTIDIAGONAL_FUELS:
        _agree(regress_off, fired, eval_iterative, d, q, fuel)
    assert fired  # the tower is cut short at the larger fuels


def test_coded_predicates(regress_off, fired):
    def coded(phi, a, fuel):
        return eval_code_agreement(phi, [a], fuel).entries[0].outcome

    outs = [_agree(regress_off, fired, coded, phi, a, fuel)
            for phi, a in CODED
            for fuel in list(range(0, 300, 7)) + [10 ** 5]]
    assert any(isinstance(o, Done) for o in outs)


def test_reflected_runs(regress_off, fired):
    outs = [_agree(regress_off, fired, eval_iterative, t, v, fuel)
            for t, v, fuels in REFLECTED for fuel in fuels]
    assert any(isinstance(o, Done) for o in outs)
    assert not fired


def test_liar_at_a_billion_takes_a_few_steps(monkeypatch):
    # the tower repeats within a few levels, so the run spends a few dozen
    # units and then drains the tank: fuel spent reads the whole billion
    tanks, spends = [], []

    class CountingTank(machine.FuelTank):
        __slots__ = ()

        def __init__(self, fuel):
            super().__init__(fuel)
            tanks.append(self)

        def spend(self):
            spends.append(1)
            super().spend()

    monkeypatch.setattr(machine, "FuelTank", CountingTank)
    report = run_liar(10 ** 9)
    assert len(spends) < 1000
    assert [t.remaining for t in tanks] == [0]
    assert isinstance(report.outcome, NestedFuelExhausted)
    golden = (DATA / "liar_fuel_100000.txt").read_text().splitlines()
    want = ["fuel=1000000000" if ln == "fuel=100000" else ln
            for ln in golden]
    assert liar_report_lines(report) == want


def test_repeats_compares_every_field_but_fuel_before():
    u = DMinus(Id(NAT), pred)
    popped = machine.apply_cost(u)

    def job(frames=(Succ(),), current=N(3), idx=1,
            k=machine.DMinusK(u, N(3), N(3), 0, True)):
        cfg = machine.Config(list(frames), current, NAT)
        return (cfg, idx, -1, k, len(frames), popped, None, None)

    # the new job, last on the stack, against the one at index 0; a
    # root's recorders are not compared
    root = job()[:6] + (print, object())
    assert machine._repeats([root, job()])
    for other in (job(frames=(Id(NAT),)), job(current=N(4)), job(idx=2),
                  job(k=machine.DMinusK(u, N(3), N(2), 1, True))):
        assert not machine._repeats([root, other])
    # an edot record is compared without the fuel left when its step began
    edot = job(k=machine.EDotK(7, 8, 100))
    assert machine._repeats([edot, job(k=machine.EDotK(7, 8, 60))])
    assert not machine._repeats([edot, job(k=machine.EDotK(7, 9, 100))])
