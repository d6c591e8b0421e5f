"""Step machine: descent, outcomes, configuration coding, reflected ops."""

import random
from pathlib import Path

import pytest

import prcalc.machine as machine
from prcalc.coding import encode_ord, from_num, hashc_num, num, quote
from prcalc.gen import random_value
from prcalc.machine import (
    Config, DescentViolation, Done, EvalFailure, FuelExhausted,
    FuelTank, IterPending, NestedFuelExhausted, PairLeft, RestrictCheck,
    complexity, config_complexity, decode_config, decode_value,
    encode_config, encode_value, eval_iterative, frame_cost,
    objectivity_check, sd_pair, sd_unpair, step, trace,
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
        assert config_complexity(empty) == ()
        assert config_complexity(Config([Succ()], N(0), NAT)) == (1,)
        cfg = Config([IterPending(Succ(), 3)], N(0), NAT)
        assert config_complexity(cfg) == (7,)
        assert cfg.ord() == (7,)

    def test_incremental_matches_recomputed(self):
        # stored costs and the lazily built running total stay equal to a
        # from-scratch recomputation while the local descent check runs
        rng = random.Random(5)
        cases = [(POW, nat2(2, 3)), (DMinus(Id(NAT), pred), N(3))]
        for name in ("cyl_pred.pr", "pair_track.pr", "restrict3.pr",
                     "shrink_decay.pr", "cond_two.pr"):
            t = parse_term((CORPUS / name).read_text())
            cases.append((t, random_value(rng, typecheck(t)[0], 5)))
        for t, v in cases:
            cfg = machine._launch(t, v)
            tank = FuelTank(10 ** 5)
            for idx in range(3000):
                if cfg.halted():
                    break
                machine._checked_step(cfg, tank, idx)
                assert cfg.costs == [frame_cost(f) for f in cfg.frames]
                assert cfg.ord() == config_complexity(cfg)
            assert cfg.halted(), t


class TestStep:
    def test_succ_single_step(self):
        cfg = machine._launch(Succ(), N(4))
        step(cfg)
        assert cfg.halted() and cfg.current == N(5)

    def test_iter_unfolds_to_pending(self):
        cfg = machine._launch(Iter(Succ()), nat2(3, 2))
        step(cfg)
        assert cfg.frames == [IterPending(Succ(), 2)]
        assert cfg.current == N(3)

    def test_dminus_runs_its_nested_jobs(self):
        tank = FuelTank(1000)
        cfg = step(Config([DMinus(Id(NAT), pred)], N(3), NAT), tank)
        assert cfg.halted() and cfg.current == nat2(3, 3)
        assert cfg.value_obj == NN
        # the nested runs spend fuel; the fired step itself spends none
        assert (tank.remaining, tank.depth) == (912, 0)

    def test_edot_miss_steps_the_decoded_config(self, monkeypatch):
        # (code, arg, fuel left, decoded result, memo entries): a unit-cost
        # reflected step is memoised, one that ran nested jobs is not
        cases = [(Succ(), 4, 999, N(5), 1),
                 (DMinus(Id(NAT), pred), 3, 911, nat2(3, 3), 0)]
        for t, a, left, result, memoised in cases:
            monkeypatch.setattr(machine, "_estep_memo", {})
            tank = FuelTank(1000)
            cfg = Config([EDot()], P(N(num(quote(t))), N(a)), NN)
            step(cfg, tank)
            assert cfg.halted() and cfg.value_obj == NN
            assert (tank.remaining, tank.depth) == (left, 0)
            sub = machine._config_from_nums(cfg.current.left.n,
                                            cfg.current.right.n)
            assert sub.halted() and sub.current == result
            assert len(machine._estep_memo) == memoised

    def test_empty_stack_is_fixed_point(self):
        cfg = Config([], N(9), NAT)
        before = cfg.current
        step(cfg)
        assert cfg.halted() and cfg.current is before


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
        records = []
        out = eval_iterative(add, nat2(1, 2), 10 ** 4,
                             on_record=lambda i, c: records.append(i))
        assert isinstance(out, Done)
        cfg = machine._launch(add, nat2(1, 2))
        tank = FuelTank(10 ** 4)
        count = 0
        while not cfg.halted():
            step(cfg, tank)
            count += 1
        assert count == len(records)
        assert cfg.current == out.value

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
            cfg = machine._launch(t, N(0))
            tank = FuelTank(100)
            for _ in range(out.step):
                step(cfg, tank)
            assert config_complexity(cfg) == out.before
            step(cfg, tank)
            assert config_complexity(cfg) == out.after

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
        cfg = machine._launch(Pair(add, ProjL(NAT, NAT)), nat2(2, 3))
        tank = FuelTank(10 ** 4)
        seen_pairleft = False
        while not cfg.halted():
            code, value = encode_config(cfg)
            typecheck(code)
            back = decode_config(code, value)
            assert back.frames == cfg.frames
            assert back.current == cfg.current
            assert back.value_obj == cfg.value_obj
            seen_pairleft = seen_pairleft or any(
                isinstance(fr, PairLeft) for fr in cfg.frames)
            step(cfg, tank)
        assert seen_pairleft

    def test_relaunch_same_result(self):
        cfg = machine._launch(mul, nat2(3, 4))
        tank = FuelTank(10 ** 5)
        for _ in range(25):
            step(cfg, tank)
        code, value = encode_config(cfg)
        relaunched = eval_iterative(code, value, 10 ** 5)
        direct = eval_iterative(mul, nat2(3, 4), 10 ** 5)
        assert relaunched == direct == Done(N(12))

    def test_num_level_round_trip(self):
        cfg = machine._launch(Comp(Succ(), Succ()), N(0))
        tank = FuelTank(100)
        step(cfg, tank)
        nu, nv = machine._config_to_nums(cfg)
        back = machine._config_from_nums(nu, nv)
        assert back.frames == cfg.frames
        assert back.current == cfg.current

    def test_structural_eval_of_fold(self):
        # the folded chain evaluates to the machine's eventual result
        cfg = machine._launch(add, nat2(2, 3))
        tank = FuelTank(10 ** 4)
        for _ in range(4):
            step(cfg, tank)
        code, value = encode_config(cfg)
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

    def test_no_running_total_without_on_record(self, monkeypatch):
        def refuse(acc, o):
            raise AssertionError("the step loop kept a running total")

        monkeypatch.setattr(machine, "_acc_add", refuse)
        assert eval_iterative(add, nat2(2, 3), 10 ** 4) == Done(N(5))
        assert eval_iterative(POW, nat2(2, 3), 10 ** 5) == Done(N(8))
        assert (eval_iterative(DMinus(Id(NAT), pred), N(3), 1000)
                == Done(nat2(3, 3)))
