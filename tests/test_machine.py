"""Step machine: descent, outcomes, configuration coding, reflected ops."""

import random
from collections import Counter
from pathlib import Path

import pytest

import prcalc.machine as machine
from prcalc.coding import encode_ord, from_num, hashc_num, num, quote
from prcalc.gen import random_value
from prcalc.machine import (
    Config, DescentViolation, Done, EvalFailure, FuelExhausted,
    FuelTank, IterPending, NestedFuelExhausted, PairLeft, RestrictCheck,
    complexity, decode_config, decode_value, encode_config, encode_value,
    eval_iterative, frame_cost, objectivity_check, sd_pair, sd_unpair,
    trace,
)
from prcalc.ordinal import descent_check, ord_brackets, ord_cmp, ord_nat_sum
from prcalc.surface import parse_term
from prcalc.term import (
    Bang, CDot, Comp, ConstVal, DMinus, EDot, EvalError, HashC, Id, Iter,
    NAT, NN, NatV, Pair, PairV, Prod, ProjL, ProjR, Restrict, Succ, TWO,
    Term, TypeMismatch, UNIT, UNITV, ZeroC, add, eval_structural, lt2, mul,
    pred, typecheck,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

N = NatV
P = PairV


def nat2(m, k):
    return P(N(m), N(k))


def recomputed(cfg):
    # the measure from scratch: a natural-sum fold over the frame costs
    total = ()
    for fr in cfg.frames:
        total = ord_nat_sum(total, frame_cost(fr))
    return total


class _Paused(Exception):
    pass


def run_to(t, v, steps, fuel=10 ** 5):
    # the live root configuration of a run of t on v, read through
    # on_record just before its step `steps`
    def record(i, cfg):
        if i == steps:
            raise _Paused(cfg)

    with pytest.raises(_Paused) as paused:
        eval_iterative(t, v, fuel, on_record=record)
    return paused.value.args[0]


def run_kept(t, v, fuel):
    # the outcome of a run of t on v and its root configuration, which
    # the run leaves where it stopped
    kept = []
    out = eval_iterative(t, v, fuel,
                         on_record=lambda i, cfg: kept or kept.append(cfg))
    return out, kept[0]


def least_fuel(t, v):
    # the least fuel that runs t on v to Done: fuel counts every step,
    # nested ones included
    fuel = 0
    while not isinstance(eval_iterative(t, v, fuel), Done):
        fuel += 1
    return fuel


# one : N -> N and the power map, an iteration nested three deep
_one_nn = Comp(Succ(), Comp(ZeroC(NAT), Bang(NN)))
POW = Comp(
    ProjL(NAT, NAT),
    Comp(Iter(Pair(mul, ProjR(NAT, NAT))),
         Pair(Pair(_one_nn, ProjL(NAT, NAT)), ProjR(NAT, NAT))))


class TestComplexity:
    def test_basics_are_zero(self):
        for c in [Succ(), Id(NAT), Bang(TWO), ProjL(NAT, NAT),
                  ConstVal(NAT, N(3))]:
            assert complexity(c) == ()

    def test_iter_sits_one_power_up(self):
        assert complexity(Iter(Succ())) == (0, 1)
        # shift(omega + 1) = omega^2 + omega
        assert complexity(Iter(Iter(Succ()))) == (0, 1, 1)

    def test_reflected_cost_one(self):
        assert complexity(DMinus(Id(NAT), pred)) == (1,)
        assert complexity(CDot()) == (1,)
        assert complexity(EDot()) == (1,)
        assert complexity(HashC()) == (1,)

    def test_composites(self):
        assert complexity(Comp(Succ(), Succ())) == (2,)
        assert complexity(Pair(Succ(), Succ())) == (4,)

    def test_config_complexity(self):
        empty = Config([], N(0), NAT)
        assert empty.ord() == recomputed(empty) == ()
        cfg = Config([Succ()], N(0), NAT)
        assert cfg.ord() == recomputed(cfg) == (1,)
        cfg = Config([IterPending(Succ(), 3)], N(0), NAT)
        assert cfg.ord() == recomputed(cfg) == (7,)
        cfg = Config([Iter(Succ()), IterPending(Succ(), 3), Succ()], N(0), NAT)
        assert cfg.ord() == recomputed(cfg) == (9, 1)

    def test_incremental_matches_recomputed(self):
        # stored costs and the measure summed from them stay equal to a
        # from-scratch recomputation while the local descent check runs
        rng = random.Random(5)
        cases = [(POW, nat2(2, 3)), (DMinus(Id(NAT), pred), N(3))]
        for name in ("cyl_pred.pr", "pair_track.pr", "restrict3.pr",
                     "shrink_decay.pr", "cond_two.pr"):
            t = parse_term((CORPUS / name).read_text())
            cases.append((t, random_value(rng, typecheck(t)[0], 5)))
        def check(i, cfg):
            assert cfg.costs == [frame_cost(f) for f in cfg.frames]
            assert cfg.ord() == recomputed(cfg)

        for t, v in cases:
            out = eval_iterative(t, v, 10 ** 5, on_record=check)
            assert isinstance(out, Done), t


class TestStep:
    def test_succ_single_step(self):
        out, cfg = run_kept(Succ(), N(4), 10)
        assert out == Done(N(5))
        assert cfg.halted() and cfg.current == N(5)
        assert least_fuel(Succ(), N(4)) == 1

    def test_iter_unfolds_to_pending(self):
        cfg = run_to(Iter(Succ()), nat2(3, 2), 1)
        assert cfg.frames == [IterPending(Succ(), 2)]
        assert cfg.current == N(3)

    def test_dminus_runs_its_nested_jobs(self):
        t = DMinus(Id(NAT), pred)
        out, cfg = run_kept(t, N(3), 1000)
        assert out == Done(nat2(3, 3))
        assert cfg.halted() and cfg.value_obj == NN
        # the step itself spends one unit, its nested runs the other 88
        assert least_fuel(t, N(3)) == 89

    def test_edot_miss_steps_the_decoded_config(self, monkeypatch):
        # (code, arg, least fuel, decoded result, memo entries): a unit-cost
        # reflected step is memoised, one that ran nested jobs is not
        cases = [(Succ(), 4, 2, N(5), 1),
                 (DMinus(Id(NAT), pred), 3, 90, nat2(3, 3), 0)]
        for t, a, fuel, result, memoised in cases:
            monkeypatch.setattr(machine, "_estep_memo", {})
            arg = P(N(num(quote(t))), N(a))
            # one unit short stops a nested step and memoises nothing
            short = eval_iterative(EDot(), arg, fuel - 1)
            assert isinstance(short, NestedFuelExhausted)
            assert machine._estep_memo == {}
            out, cfg = run_kept(EDot(), arg, fuel)
            assert isinstance(out, Done)
            assert cfg.halted() and cfg.value_obj == NN
            sub = machine._config_from_nums(out.value.left.n,
                                            out.value.right.n)
            assert sub.halted() and sub.current == result
            assert len(machine._estep_memo) == memoised

    def test_empty_stack_is_fixed_point(self):
        # the stationarity probe that closes every run fires the empty
        # stack, which must change nothing and spend no fuel
        cfg = Config([], N(9), NAT)
        before = cfg.current
        tank = FuelTank(10)
        assert machine._fire(cfg, tank) is None
        assert cfg.halted() and cfg.current is before
        assert cfg.value_obj == NAT and tank.remaining == 10


class TestEvalIterative:
    def test_succ(self):
        assert eval_iterative(Succ(), N(4), 10) == Done(N(5))

    def test_add(self):
        assert eval_iterative(add, nat2(2, 3), 10 ** 4) == Done(N(5))

    def test_fuel_exhaustion(self):
        out = eval_iterative(Iter(Succ()), nat2(0, 10 ** 9), 100)
        assert isinstance(out, FuelExhausted)
        assert 1 <= len(out.tail) <= 10
        steps = [i for i, _ in out.tail]
        assert steps == sorted(steps)

    def test_big_iteration_within_fuel(self):
        out = eval_iterative(Iter(Succ()), nat2(0, 10 ** 4), 10 ** 5)
        assert out == Done(N(10 ** 4))

    def test_restrict_failure_reported(self):
        t = Restrict(Id(NAT), TWO)
        assert eval_iterative(t, N(1), 100) == Done(N(1))
        out = eval_iterative(t, N(5), 100)
        assert isinstance(out, EvalFailure)

    def test_argument_shape_is_a_precondition(self):
        with pytest.raises(TypeMismatch):
            eval_iterative(Succ(), UNITV, 10)

    def test_termination_index_is_least_zero(self):
        # the run stops at the first empty stack: every recorded step has
        # a frame to fire, and the step count is exactly the fuel needed
        records = []

        def record(i, cfg):
            assert not cfg.halted() and cfg.ord() != ()
            records.append(i)

        out, cfg = run_kept(add, nat2(1, 2), 10 ** 4)
        assert eval_iterative(add, nat2(1, 2), 10 ** 4,
                              on_record=record) == out
        assert isinstance(out, Done)
        assert records == list(range(len(records)))
        assert cfg.halted() and cfg.ord() == ()
        assert cfg.current == out.value
        assert least_fuel(add, nat2(1, 2)) == len(records)

    def test_descent_violation_detected(self, misprice):
        # the pair misprices only its inner composition, so descent breaks
        # at step 1 with a PairLeft frame left below the broken step
        paired = Pair(Comp(Succ(), Succ()), Succ())
        misprice(lambda c: (9,) if c is paired else ())
        for t, broken_at in ((Comp(Succ(), Succ()), 0), (paired, 1)):
            out = eval_iterative(t, N(0), 100)
            assert isinstance(out, DescentViolation)
            assert out.step == broken_at
            assert ord_cmp(out.after, out.before) >= 0
            cfg = run_to(t, N(0), out.step, 100)
            assert cfg.ord() == recomputed(cfg) == out.before
            again, cfg = run_kept(t, N(0), 100)
            assert again == out
            assert cfg.ord() == recomputed(cfg) == out.after

    def test_mispriced_runs_store_only_real_costs(self, misprice,
                                                  monkeypatch):
        # a chain of 23 successors is a term no other test builds, so the
        # mispriced runs are the first to ask for its longer links' costs
        chain = Succ()
        for _ in range(22):
            chain = Comp(Succ(), chain)
        paired = Pair(chain, Succ())
        misprice(lambda c: (9,) if c is paired else ())
        assert isinstance(eval_iterative(paired, N(0), 100), DescentViolation)
        (entry,) = objectivity_check(chain, [N(0)], 100).entries
        assert isinstance(entry.outcome, DescentViolation)
        monkeypatch.undo()
        nodes, todo = [], [paired]
        while todo:
            c = todo.pop()
            nodes.append(c)
            todo += [k for k in (getattr(c, f) for f in c._fields)
                     if isinstance(k, Term)]
        for c in nodes:
            assert machine.apply_cost(c) == ord_nat_sum(complexity(c), (1,))
        # 22 compositions at two each, and the pair's four
        assert machine.apply_cost(paired) == (49,)


class TestDescent:
    def test_every_trace_descends(self):
        cases = [
            (Succ(), N(7)),
            (add, nat2(2, 3)),
            (mul, nat2(3, 4)),
            (POW, nat2(2, 3)),
            (Pair(Succ(), pred), N(5)),
            (Restrict(Id(NAT), TWO), N(0)),
            (Comp(add, Pair(pred, Succ())), N(4)),
        ]
        for t, v in cases:
            ords = []
            out = eval_iterative(t, v, 10 ** 5,
                                 on_record=lambda i, c: ords.append(c.ord()))
            assert isinstance(out, Done), (t, out)
            ords.append(())  # final configuration
            assert descent_check(ords) is None


class TestTrace:
    def test_single_step_record(self):
        records, out = trace(Succ(), N(4), 10)
        assert out == Done(N(5))
        assert len(records) == 1
        assert records[0].startswith("step=0 frames=Apply:succ ")

    def test_deterministic(self):
        a = trace(add, nat2(2, 3), 10 ** 4)
        b = trace(add, nat2(2, 3), 10 ** 4)
        assert a == b

    def test_complexity_column_descends(self):
        records, out = trace(add, nat2(2, 3), 10 ** 4)
        assert isinstance(out, Done)
        cols = [r.split("complexity=")[1].split(" value=")[0]
                for r in records]
        assert len(cols) == len(set(cols))


class TestValueCoding:
    def test_sd_pair_frozen(self):
        assert sd_pair(0, 0) == 2
        assert sd_pair(1, 0) == 12

    def test_sd_round_trip(self):
        rng = random.Random(7)
        for _ in range(300):
            x, y = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
            assert sd_unpair(sd_pair(x, y)) == (x, y)

    def test_sd_size_additive(self):
        x, y = 2 ** 200 - 3, 2 ** 300 + 11
        n = sd_pair(x, y)
        assert n.bit_length() < 2 * (200 + 300)

    def test_sd_unpair_rejects(self):
        for bad in [0, 1, 3]:
            with pytest.raises(EvalError):
                sd_unpair(bad)

    def test_value_codec_by_object(self):
        cases = [
            (NAT, N(42)),
            (UNIT, UNITV),
            (Prod(NAT, Prod(UNIT, NAT)), P(N(3), P(UNITV, N(0)))),
            (TWO, N(1)),
        ]
        for obj, v in cases:
            assert decode_value(obj, encode_value(obj, v)) == v

    def test_decode_value_rejects(self):
        with pytest.raises(EvalError):
            decode_value(UNIT, 3)
        with pytest.raises(EvalError):
            decode_value(TWO, 5)  # outside the abstraction


class TestConfigCoding:
    def test_round_trip_mid_run(self):
        seen = []

        def round_trip(i, cfg):
            code, value = encode_config(cfg)
            typecheck(code)
            back = decode_config(code, value)
            assert back.frames == cfg.frames
            assert back.current == cfg.current
            assert back.value_obj == cfg.value_obj
            seen.extend(type(fr) for fr in cfg.frames)

        out = eval_iterative(Pair(add, ProjL(NAT, NAT)), nat2(2, 3),
                             10 ** 4, on_record=round_trip)
        assert out == Done(P(N(5), N(2)))
        assert PairLeft in seen

    def test_relaunch_same_result(self):
        code, value = encode_config(run_to(mul, nat2(3, 4), 25))
        relaunched = eval_iterative(code, value, 10 ** 5)
        direct = eval_iterative(mul, nat2(3, 4), 10 ** 5)
        assert relaunched == direct == Done(N(12))

    def test_num_level_round_trip(self):
        cfg = run_to(Comp(Succ(), Succ()), N(0), 1, 100)
        nu, nv = machine._config_to_nums(cfg)
        back = machine._config_from_nums(nu, nv)
        assert back.frames == cfg.frames
        assert back.current == cfg.current

    def test_structural_eval_of_fold(self):
        # the folded chain evaluates to the machine's eventual result
        code, value = encode_config(run_to(add, nat2(2, 3), 4))
        assert eval_structural(code, value) == N(5)


class TestReflected:
    def test_hashc(self):
        out = eval_iterative(HashC(), N(0), 100)
        assert out == Done(N(hashc_num(0)))

    def test_cdot_reports_complexity(self):
        arg = P(N(num(quote(Succ()))), N(4))
        out = eval_iterative(CDot(), arg, 100)
        assert out == Done(N(encode_ord((1,))))

    def test_cdot_zero_on_halted(self):
        arg = P(N(num(Id(NAT))), N(7))
        assert eval_iterative(CDot(), arg, 100) == Done(N(0))

    def test_edot_single_step(self):
        arg = P(N(num(quote(Succ()))), N(4))
        out = eval_iterative(EDot(), arg, 100)
        assert isinstance(out, Done)
        nu, nv = out.value.left.n, out.value.right.n
        assert from_num(nu) == Id(NAT)
        assert nv == 5

    def test_edot_fixed_point_on_halted(self):
        arg = P(N(num(Id(NAT))), N(7))
        assert eval_iterative(EDot(), arg, 100) == Done(arg)

    def test_edot_chain_simulates(self):
        # drive succ-of-succ to completion through the reflected step
        cur = P(N(num(quote(Comp(Succ(), Succ())))), N(3))
        for _ in range(10):
            out = eval_iterative(EDot(), cur, 1000)
            assert isinstance(out, Done)
            if out.value == cur:
                break
            cur = out.value
        assert cur.right == N(5)
        assert from_num(cur.left.n) == Id(NAT)

    def test_dminus_counts_down(self):
        t = DMinus(Id(NAT), pred)
        out = eval_iterative(t, N(3), 1000)
        assert out == Done(P(N(3), N(3)))
        assert eval_iterative(t, N(0), 1000) == Done(P(N(0), N(0)))

    def test_dminus_at_every_small_fuel_ends_in_an_outcome(self):
        # the step spends one unit and its nested runs 88 more: fuel 0
        # stops the root, 1-88 stop a nested run, 89 and up finish
        t = DMinus(Id(NAT), pred)
        kinds = Counter(type(eval_iterative(t, N(3), f)).__name__
                        for f in range(120))
        assert kinds == {"Done": 31, "FuelExhausted": 1,
                         "NestedFuelExhausted": 88}

    def test_dminus_nested_fuel(self):
        t = DMinus(Id(NAT), Id(NAT))  # measure never reaches zero
        out = eval_iterative(t, N(1), 500)
        assert isinstance(out, NestedFuelExhausted)

    def test_reflected_bad_input(self):
        # the code number names a configuration over N x N, but 0 is not a
        # valid pair encoding, so the reflected step cannot decode the value
        arg = P(N(num(Id(NN))), N(0))
        out = eval_iterative(EDot(), arg, 100)
        assert isinstance(out, EvalFailure)


class TestObjectivity:
    def test_id_agrees(self):
        report = objectivity_check(Id(NAT), [N(i) for i in range(100)], 1000)
        assert report.ok
        assert all(e.kind == "match" for e in report.entries)

    def test_mul_agrees(self):
        rng = random.Random(13)
        args = [nat2(rng.randrange(30), rng.randrange(30))
                for _ in range(100)]
        assert objectivity_check(mul, args).ok

    def test_nested_iteration_agrees(self):
        rng = random.Random(17)
        args = [nat2(rng.randrange(4), rng.randrange(4)) for _ in range(50)]
        assert objectivity_check(POW, args).ok
        assert eval_structural(POW, nat2(2, 3)) == N(8)

    def test_restrict_failures_agree(self):
        t = Restrict(Id(NAT), TWO)
        report = objectivity_check(t, [N(0), N(1), N(2), N(9)], 1000)
        assert report.ok
        kinds = [e.kind for e in report.entries]
        assert kinds == ["match", "match", "both_fail", "both_fail"]

    def test_fuel_exhaustion_reported(self):
        report = objectivity_check(Iter(Succ()), [nat2(0, 10 ** 5)], 50)
        assert not report.ok
        assert report.fuel_exhaustions

    def test_entries_carry_the_outcome_and_the_steps(self):
        # steps counts the top-level steps fired, the failing one included,
        # as the trace has one record per fired step
        cases = [(add, nat2(2, 3), 1000), (add, nat2(0, 0), 1000),
                 (Iter(Succ()), nat2(0, 10 ** 5), 50)]
        for t, arg, fuel in cases:
            (entry,) = objectivity_check(t, [arg], fuel).entries
            records, out = trace(t, arg, fuel)
            assert entry.outcome == out
            assert entry.steps == len(records)
        assert isinstance(entry.outcome, FuelExhausted)

    def test_descent_violation_is_a_mismatch(self, misprice):
        # with every code priced at zero, an iteration's first unfolding
        # does not descend
        misprice(lambda c: ())
        (entry,) = objectivity_check(add, [nat2(2, 3)], 1000).entries
        assert entry.kind == "mismatch"
        assert isinstance(entry.outcome, DescentViolation)
        assert entry.outcome.step == 0
        assert entry.steps == 1


def _measures(records):
    # trace's complexity column: entry i is the measure before step i,
    # that is, after step i - 1
    return [r.split(" complexity=")[1].split(" value=")[0] for r in records]


def _top_frame(record):
    return record.split(" frames=")[1].split(" complexity=")[0].split("|")[-1]


class TestTail:
    """The fuel-exhaustion tail is rebuilt from the final stack: each entry
    (i, m) is the measure after top-level step i, the last ten steps that
    finished."""

    def check_tail(self, t, v, fuel, kind):
        out = eval_iterative(t, v, fuel)
        records, traced = trace(t, v, fuel)
        assert type(out) is kind and traced == out
        done = len(records) - 1  # the last record's step never finished
        assert [i for i, _ in out.tail] == list(range(max(0, done - 10),
                                                      done))
        cols = _measures(records)
        for i, m in out.tail:
            assert ord_brackets(m) == cols[i + 1]
        return records

    def test_corpus_terms_at_several_fuels(self):
        rng = random.Random(8)
        for name in ("add.pr", "cyl_pred.pr", "pair_track.pr",
                     "restrict3.pr", "shrink_decay.pr", "tri_loop.pr"):
            t = parse_term((CORPUS / name).read_text())
            v = random_value(rng, typecheck(t)[0], 6)
            records, out = trace(t, v)
            assert isinstance(out, Done)
            steps = len(records)
            for fuel in sorted({0, 1, 2, 9, 10, 11, 37, steps // 2,
                                steps - 1}):
                if fuel < steps:
                    self.check_tail(t, v, fuel, FuelExhausted)

    def test_dminus_in_flight(self):
        # steps 0 and 1 unfold and take the successor; step 2 is the
        # descent search, whose nested runs exhaust the fuel
        t = Comp(DMinus(Id(NAT), pred), Succ())
        for fuel in (3, 10, 40):
            records = self.check_tail(t, N(3), fuel, NestedFuelExhausted)
            assert len(records) == 3
            assert _top_frame(records[-1]).startswith("Apply:(dminus ")

    def test_edot_miss_in_flight(self, caches_off):
        # the reflected step of a config whose own step is a descent search
        # runs nested jobs; the edot step is the root's fifth
        sub = P(N(num(quote(DMinus(Id(NAT), pred)))), N(3))
        t = Comp(EDot(), Comp(Id(NN), Id(NN)))
        for fuel in (5, 6, 30):
            records = self.check_tail(t, sub, fuel, NestedFuelExhausted)
            assert len(records) == 5
            assert _top_frame(records[-1]) == "Apply:edot"
