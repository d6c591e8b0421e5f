"""Coded self-evaluation: the evaluator code, the antidiagonal, the liar."""

import sys
import threading
from pathlib import Path

import pytest

from prcalc.coding import hashc_num, num, pred_count_hash
from prcalc.diagonal import (
    antidiagonal_index, build_antidiagonal, build_eval_code,
    eval_code_agreement, liar_report_lines, run_liar,
)
from prcalc.gen import nat_const
from prcalc.machine import Done, EvalFailure, eval_iterative
from prcalc.ordinal import descent_check
from prcalc.term import (
    Bang, Comp, EvalError, FalseC, Id, NAT, NN, NatV, NotC, Pair, Prod,
    TWO, TrueC, eq0, eval_structural, leq, lt2, monus, pred, typecheck,
)

DATA = Path(__file__).resolve().parent / "data"

EXHAUSTED = {"FuelExhausted", "NestedFuelExhausted", "DescentViolation"}

# plain predicates N -> Two for the agreement sweep
PREDICATES = [
    eq0,
    Comp(TrueC(), Bang(NAT)),
    Comp(FalseC(), Bang(NAT)),
    Comp(NotC(), eq0),
    lt2,
    Comp(leq, Pair(Id(NAT), nat_const(3, NAT))),
    Comp(eq0, Comp(monus, Pair(Id(NAT), nat_const(4, NAT)))),
    Comp(eq0, pred),
]


class TestEvalCode:
    def test_typing(self):
        assert typecheck(build_eval_code()) == (NN, TWO)

    def test_agrees_with_direct_evaluation(self):
        for phi in PREDICATES:
            report = eval_code_agreement(phi, range(8))
            bad = [e for e in report.entries if not e.match]
            assert report.ok, f"{phi}: {bad}"

    def test_example_negated_zero_test(self):
        phi = Comp(NotC(), eq0)
        report = eval_code_agreement(phi, [0])
        assert report.entries[0].outcome == Done(NatV(0))


class TestAntidiagonal:
    def test_typing(self):
        assert typecheck(build_antidiagonal()) == (NAT, TWO)

    def test_flips_each_predicate_at_its_own_index(self):
        d = build_antidiagonal()
        for n in range(6):
            p = pred_count_hash(n)
            try:
                direct = eval_structural(p, NatV(n))
            except EvalError:
                # the enumerated predicate rejects its index; the coded
                # run must surface the same failure rather than a value
                got = eval_iterative(d, NatV(n), 10 ** 5)
                assert isinstance(got, EvalFailure)
                continue
            flipped = eval_structural(NotC(), direct)
            assert eval_iterative(d, NatV(n), 10 ** 5) == Done(flipped)

    def test_self_reference(self):
        d = build_antidiagonal()
        q = antidiagonal_index()
        assert hashc_num(q) == num(d)
        assert pred_count_hash(q) == d

    def test_index_stable(self):
        assert antidiagonal_index() == antidiagonal_index()


class TestLiarRun:
    def test_small_fuel_exhausts(self):
        report = run_liar(300)
        assert report.verdict in EXHAUSTED
        assert report.verdict != "ContradictionValue"
        assert not isinstance(report.outcome, Done)
        assert report.fuel == 300
        assert report.q == antidiagonal_index()

    def test_identical_fuel_identical_report(self):
        a, b = run_liar(250), run_liar(250)
        assert a == b
        assert liar_report_lines(a) == liar_report_lines(b)

    def test_more_fuel_never_fewer_steps(self):
        runs = [run_liar(f) for f in (200, 500, 1500)]
        assert all(r.verdict in EXHAUSTED for r in runs)
        steps = [r.trace_digest.steps for r in runs]
        assert steps == sorted(steps)

    def test_top_level_trace_descends(self):
        d = build_antidiagonal()
        q = antidiagonal_index()
        ords = []
        eval_iterative(d, NatV(q), 400, on_record=lambda i, c: ords.append(c.ord()))
        assert ords
        assert descent_check(ords) is None

    def test_runs_on_the_calling_thread(self, monkeypatch):
        # nested reflected runs live on the machine's own job stack: no
        # worker thread, no change to the recursion limit
        def no_thread(*args, **kwargs):
            raise AssertionError("run_liar started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        limit = sys.getrecursionlimit()
        report = run_liar(100000)
        assert sys.getrecursionlimit() == limit
        golden = (DATA / "liar_fuel_100000.txt").read_text()
        assert "\n".join(liar_report_lines(report)) + "\n" == golden

    def test_report_lines_shape(self):
        report = run_liar(300)
        lines = liar_report_lines(report)
        assert lines[0] == "kind=liar-report"
        assert all("=" in ln for ln in lines)
        keys = [ln.split("=", 1)[0] for ln in lines]
        for want in ("verdict", "fuel", "q", "d_num", "steps", "code"):
            assert want in keys
        assert f"verdict={report.verdict}" in lines
