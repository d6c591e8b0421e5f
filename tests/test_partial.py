"""Partial maps, mu-search, choice inverses, and controlled iteration."""

import math
import random

import pytest

from prcalc.coding import cont_raw, encode_ord
from prcalc.partial import (
    CCIDone,
    CCIInstance,
    DescentViolation,
    Done,
    FuelExhausted,
    StatViolation,
    UnsupportedConstructor,
    _count_term,
    _eq_term,
    _mod_term,
    audit_cci,
    cci_run,
    d_minus,
    define_by_exists,
    gcd_bound,
    gcd_cci,
    gcd_partial,
    gcd_state,
    gcd_subtractive_cci,
    load_cci,
    make_partial,
    middle_inverse_partial,
    middle_inverse_total,
    mu_agreement_check,
    mu_search,
    par_apply,
    par_compose,
    structural_middle_inverse,
    total_as_partial,
)
from prcalc.gen import random_predicate
from prcalc.surface import ParseError, print_obj, print_term
from prcalc.term import (
    NAT,
    NN,
    Bang,
    Comp,
    Cyl,
    EqNat,
    EvalError,
    FalseC,
    Id,
    Iter,
    NatV,
    Pair,
    PairV,
    Prod,
    ProjL,
    ProjR,
    Succ,
    TypeMismatch,
    UNIT,
    ZeroC,
    add,
    cantor_pair,
    eq_sample,
    eval_structural,
    monus,
    mul,
    one_n,
    pred,
    swap,
    tri,
    zero_n,
)

N = NatV
P = PairV


def _pp(a, b):
    return P(N(a), N(b))


# reusable predicates over N x N (argument, search index)
ARG = ProjL(NAT, NAT)
IDX = ProjR(NAT, NAT)
NEVER = Comp(FalseC(), Bang(NN))

# half: defined at even numbers, witness and value b/2
HALF_ZETA = Comp(EqNat(), Pair(ARG, Comp(add, Pair(IDX, IDX))))
# shifted down by one: defined at positive numbers
PRED_ZETA = Comp(EqNat(), Pair(ARG, Comp(Succ(), IDX)))


def half_partial():
    return make_partial(NAT, NAT, HALF_ZETA, IDX)


def pred_partial():
    return make_partial(NAT, NAT, PRED_ZETA, IDX)


class TestMuSearch:
    def test_threshold_witness(self):
        # index at least three: the least witness is three, whatever a is
        three = Comp(Succ(), Comp(Succ(), Comp(Succ(), zero_n)))
        phi = Comp(EqNat(), Pair(Comp(monus, Pair(Comp(three, ARG), IDX)),
                                 Comp(ZeroC(NAT), Bang(NN))))
        for a in (0, 5, 9):
            assert mu_search(phi, N(a), 10) == 3

    def test_never_true(self):
        assert mu_search(NEVER, N(4), 10) == FuelExhausted(())

    def test_equality_witness_is_argument(self):
        phi = Comp(EqNat(), Pair(ARG, IDX))
        for a in range(7):
            assert mu_search(phi, N(a), 20) == a
            for m in range(a):
                assert eval_structural(phi, P(N(a), N(m))) == N(0)

    def test_rejects_non_predicates(self):
        with pytest.raises(TypeMismatch):
            mu_search(Succ(), N(0), 5)
        with pytest.raises(TypeMismatch):
            mu_search(Comp(add, Pair(ARG, IDX)), N(0), 5)


class TestModTerm:
    def test_matches_host_remainder(self):
        t = _mod_term(ARG, IDX, NN)
        for a in (0, 1, 7, 23, 40):
            for b in (1, 2, 3, 7, 12):
                assert eval_structural(t, _pp(a, b)) == N(a % b)

    def test_zero_divisor_passes_through(self):
        t = _mod_term(ARG, IDX, NN)
        for a in (0, 4, 19):
            assert eval_structural(t, _pp(a, 0)) == N(a)


class TestParApply:
    def test_total_wrapper_matches_structural(self):
        w = total_as_partial(Succ())
        for n in range(25):
            assert par_apply(w, N(n), 5) == Done(N(n + 1))
        wa = total_as_partial(add)
        rng = random.Random(7)
        for _ in range(15):
            a, b = rng.randrange(30), rng.randrange(30)
            assert par_apply(wa, _pp(a, b), 5) == Done(N(a + b))

    def test_empty_domain(self):
        f = make_partial(NAT, NAT, NEVER, IDX)
        assert par_apply(f, N(5), 40) == FuelExhausted(())

    def test_half_defined_on_evens_only(self):
        h = half_partial()
        for b in range(0, 21, 2):
            assert par_apply(h, N(b), 40) == Done(N(b // 2))
        for b in range(1, 20, 2):
            assert par_apply(h, N(b), 40) == FuelExhausted(())

    def test_gcd_partial_example(self):
        assert par_apply(gcd_partial(), _pp(12, 18), 40) == Done(N(6))

    def test_gcd_partial_sampled(self):
        g = gcd_partial()
        rng = random.Random(3)
        for _ in range(10):
            a, b = rng.randrange(1, 40), rng.randrange(1, 40)
            got = par_apply(g, _pp(a, b), a + b + 2)
            assert got == Done(N(math.gcd(a, b)))


class TestParCompose:
    def test_total_wrappers_compose_structurally(self):
        comp = par_compose(total_as_partial(Succ()), total_as_partial(Succ()))
        for n in range(12):
            assert par_apply(comp, N(n), 50) == Done(N(n + 2))

    def test_identity_is_neutral(self):
        h = half_partial()
        comp = par_compose(h, total_as_partial(Id(NAT)))
        for b in range(0, 15, 2):
            assert par_apply(comp, N(b), 60) == par_apply(h, N(b), 60)
        for b in (1, 7, 13):
            assert par_apply(comp, N(b), 25) == FuelExhausted(())

    def test_first_stage_undefined(self):
        f = make_partial(NAT, NAT, NEVER, IDX)
        comp = par_compose(total_as_partial(Succ()), f)
        assert par_apply(comp, N(3), 60) == FuelExhausted(())

    def test_partial_after_partial(self):
        quarter = par_compose(half_partial(), half_partial())
        assert par_apply(quarter, N(16), 150) == Done(N(4))
        assert par_apply(quarter, N(6), 150) == FuelExhausted(())

    def test_stage_mismatch_rejected(self):
        with pytest.raises(TypeMismatch):
            par_compose(total_as_partial(add), total_as_partial(Succ()))


class TestMiddleInversePartial:
    def test_succ_preimage(self):
        g = middle_inverse_partial(total_as_partial(Succ()))
        assert par_apply(g, N(5), 60) == Done(N(4))

    def test_outside_image_undefined(self):
        g = middle_inverse_partial(total_as_partial(Succ()))
        assert par_apply(g, N(0), 80) == FuelExhausted(())

    def test_law_stagewise(self):
        # f . g . f agrees with f wherever f is defined
        maps = [
            total_as_partial(Succ()),
            total_as_partial(Comp(add, Pair(Id(NAT), Id(NAT)))),
            total_as_partial(Id(NAT)),
            half_partial(),
            pred_partial(),
        ]
        for f in maps:
            g = middle_inverse_partial(f)
            hits = 0
            for a in range(8):
                first = par_apply(f, N(a), 60)
                if not isinstance(first, Done):
                    continue
                hits += 1
                back = par_apply(g, first.value, 4000)
                assert isinstance(back, Done)
                again = par_apply(f, back.value, 60)
                assert again == first
            assert hits >= 3

    def test_law_through_composition(self):
        f = total_as_partial(Succ())
        g = middle_inverse_partial(f)
        triple = par_compose(f, par_compose(g, f))
        assert par_apply(triple, N(0), 400) == Done(N(1))

    def test_pair_base(self):
        f = total_as_partial(add)
        g = middle_inverse_partial(f)
        got = par_apply(g, N(3), 3000)
        assert isinstance(got, Done)
        a = got.value
        assert a.left.n + a.right.n == 3


class TestStructuralMiddleInverse:
    def test_succ_gives_pred(self):
        assert structural_middle_inverse(Succ()) == pred
        law = Comp(Succ(), Comp(pred, Succ()))
        assert eq_sample(law, Succ(), 1000) is None

    def test_iter_zero_pad(self):
        pad = Pair(Id(NAT), Comp(ZeroC(NAT), Bang(NAT)))
        assert structural_middle_inverse(monus) == pad
        assert structural_middle_inverse(add) == pad

    def test_projl_zero_pad(self):
        t = ProjL(NAT, NAT)
        pad = Pair(Id(NAT), Comp(ZeroC(NAT), Bang(NAT)))
        assert structural_middle_inverse(t) == pad

    def test_pred_gives_succ(self):
        assert structural_middle_inverse(pred) == Succ()
        law = Comp(pred, Comp(Succ(), pred))
        assert eq_sample(law, pred, 1000) is None

    def test_mul_gives_pair_with_one(self):
        assert structural_middle_inverse(mul) == Pair(Id(NAT), one_n)
        law = Comp(mul, Comp(Pair(Id(NAT), one_n), mul))
        assert eq_sample(law, mul, 200) is None

    def test_swap_gives_swap(self):
        assert structural_middle_inverse(swap) == swap
        law = Comp(swap, Comp(swap, swap))
        assert eq_sample(law, swap, 200) is None

    def test_law_on_supported_terms(self):
        supported = [
            Id(NAT),
            Succ(),
            Comp(Succ(), Succ()),
            ProjL(NAT, NAT),
            ProjR(NAT, NAT),
            add,
            monus,
            Cyl(NAT, Succ()),
            Pair(Succ(), Comp(Succ(), Succ())),
            Pair(Bang(NAT), Id(NAT)),
            Iter(Pair(ProjR(NAT, NAT), ProjL(NAT, NAT))),
            Bang(NN),
            ZeroC(NN),
        ]
        for t in supported:
            inv = structural_middle_inverse(t)
            law = Comp(t, Comp(inv, t))
            assert eq_sample(law, t, 200) is None, print_term(t)

    def test_unsupported_shapes(self):
        for t in (tri, EqNat(), Comp(EqNat(), Pair(ARG, IDX)),
                  Pair(ProjL(NAT, NAT), ProjR(NAT, NAT))):
            with pytest.raises(UnsupportedConstructor):
                structural_middle_inverse(t)


class TestMiddleInverseTotal:
    def test_succ_preimage_and_fallback(self):
        inv = middle_inverse_total(Succ(), N(0), 50)
        assert inv(N(7)) == N(6)
        assert inv(N(0)) == N(0)

    def test_law_sampled(self):
        cases = [(Succ(), N(0), [N(k) for k in range(20)]),
                 (add, _pp(0, 0), [_pp(a, b) for a in range(6) for b in range(6)])]
        for f, a0, args in cases:
            inv = middle_inverse_total(f, a0, 400)
            for a in args:
                b = eval_structural(f, a)
                assert eval_structural(f, inv(b)) == b

    def test_fallback_point_must_fit(self):
        with pytest.raises(TypeMismatch):
            middle_inverse_total(Succ(), _pp(0, 0), 10)


def brute_force_index(inst, a, cap=200):
    """Independent re-run: iterate p counting steps until c decodes to zero."""
    from prcalc.coding import decode_ord
    state, steps = a, 0
    while decode_ord(eval_structural(inst.c, state).n) != ():
        state = eval_structural(inst.p, state)
        steps += 1
        assert steps <= cap
    return state, steps


class TestCCIRun:
    def test_gcd_example(self):
        inst = gcd_cci()
        start = gcd_state(12, 18)
        got = cci_run(inst, start, 100)
        assert isinstance(got, CCIDone)
        assert got.value == P(N(6), _pp(0, 0))
        state, steps = brute_force_index(inst, start)
        assert (got.value, got.index) == (state, steps)
        assert got.index == gcd_bound(12, 18)

    def test_gcd_sampled(self):
        inst = gcd_cci()
        rng = random.Random(11)
        for _ in range(8):
            a, b = rng.randrange(1, 300), rng.randrange(1, 300)
            got = cci_run(inst, gcd_state(a, b), 100)
            assert isinstance(got, CCIDone)
            assert got.value.left == N(math.gcd(a, b))
            assert got.index == gcd_bound(a, b)

    def test_zero_complexity_is_stationary(self):
        inst = gcd_cci()
        parked = P(N(7), _pp(3, 0))
        assert cci_run(inst, parked, 10) == CCIDone(parked, 0)

    def test_identity_step_violates_descent(self):
        # complexity encodes the positive ordinal (a + 1), step is the identity
        c = Comp(cantor_pair, Pair(one_n, Comp(Succ(), Id(NAT))))
        inst = CCIInstance(NAT, c, Id(NAT))
        got = cci_run(inst, N(5), 10)
        assert isinstance(got, DescentViolation)
        assert got.step == 0
        assert got.before == got.after == (6,)

    def test_moving_at_zero_violates_stationarity(self):
        inst = CCIInstance(NAT, zero_n, Succ())
        got = cci_run(inst, N(4), 10)
        assert got == StatViolation(0)

    def test_malformed_complexity_code(self):
        inst = CCIInstance(NAT, one_n, Succ())
        with pytest.raises(EvalError):
            cci_run(inst, N(0), 5)

    def test_fuel_exhaustion(self):
        # the tail holds (step, measure after it); the budget 14 ticks down
        got = cci_run(gcd_cci(), gcd_state(12, 18), 3)
        assert got == FuelExhausted(((0, (13,)), (1, (12,)), (2, (11,))))

    def test_fuel_tail_is_the_last_ten_recomputed_measures(self):
        from prcalc.coding import decode_ord
        for inst, start, fuel in ((gcd_cci(), gcd_state(9999, 7777), 25),
                                  (gcd_subtractive_cci(), _pp(12, 18), 4)):
            got = cci_run(inst, start, fuel)
            state, want = start, []
            for i in range(fuel):
                state = eval_structural(inst.p, state)
                want.append((i, decode_ord(eval_structural(inst.c, state).n)))
            assert got == FuelExhausted(tuple(want[-10:]))

    def test_subtractive_example(self):
        inst = gcd_subtractive_cci()
        got = cci_run(inst, _pp(12, 18), 50)
        assert isinstance(got, CCIDone)
        assert got.value == _pp(6, 0)
        state, steps = brute_force_index(inst, _pp(12, 18))
        assert (got.value, got.index) == (state, steps)
        assert got.index == 6

    def test_audit_reports(self):
        good = audit_cci(gcd_subtractive_cci(),
                         [_pp(4, 6), _pp(9, 3), _pp(0, 5)], 60)
        assert good.ok and all(e.outcome == "done" for e in good.entries)
        bad_inst = CCIInstance(NAT, zero_n, Succ())
        bad = audit_cci(bad_inst, [N(0), N(3)], 10)
        assert not bad.ok
        assert {e.outcome for e in bad.entries} == {"stat"}


class TestOneVocabulary:
    def test_runners_return_the_machine_outcome_classes(self):
        # the benchmark imports CCIDone, Done and FuelExhausted from here
        import prcalc.machine as machine
        import prcalc.partial as partial
        for name in ("Done", "FuelExhausted", "DescentViolation",
                     "StatViolation"):
            assert getattr(partial, name) is getattr(machine, name)
        assert partial.CCIDone.__module__ == "prcalc.partial"


class TestDMinus:
    def test_gcd_example(self):
        start = gcd_state(12, 18)
        got = d_minus(gcd_cci(), start, 100)
        assert got == Done(P(start, N(gcd_bound(12, 18))))

    def test_zero_complexity(self):
        parked = P(N(9), _pp(2, 0))
        assert d_minus(gcd_cci(), parked, 10) == Done(P(parked, N(0)))

    def test_section_law_and_minimality(self):
        inst = gcd_subtractive_cci()
        from prcalc.coding import decode_ord
        for a, b in ((5, 15), (9, 6), (7, 7), (0, 4)):
            start = _pp(a, b)
            got = d_minus(inst, start, 80)
            assert isinstance(got, Done)
            assert got.value.left == start
            k = got.value.right.n
            state = start
            for _ in range(k):
                assert decode_ord(eval_structural(inst.c, state).n) != ()
                state = eval_structural(inst.p, state)
            assert decode_ord(eval_structural(inst.c, state).n) == ()

    def test_error_passthrough(self):
        bad = CCIInstance(NAT, zero_n, Succ())
        assert isinstance(d_minus(bad, N(1), 5), StatViolation)


class TestDefineByExists:
    def test_successor_witness(self):
        phi = Comp(EqNat(), Pair(Comp(Succ(), ARG), IDX))
        assert define_by_exists(phi, N(4), 20) == Done(N(5))

    def test_never_true(self):
        assert define_by_exists(NEVER, N(0), 25) == FuelExhausted(())

    def test_minimality_by_rescan(self):
        # first b with a <= b is a itself; everything earlier fails
        phi = Comp(EqNat(), Pair(Comp(monus, Pair(ARG, IDX)), Comp(zero_n, ARG)))
        got = define_by_exists(phi, N(3), 20)
        assert got == Done(N(3))
        for earlier in range(3):
            assert eval_structural(phi, P(N(3), N(earlier))) == N(0)

    def test_pair_valued_search(self):
        # least (x, y) in count order with x + y = a
        dom = Prod(NAT, NN)
        phi = Comp(EqNat(), Pair(Comp(add, ProjR(NAT, NN)), ProjL(NAT, NN)))
        got = define_by_exists(phi, N(4), 60)
        assert isinstance(got, Done)
        n = 0
        while True:
            cand = cont_raw(NN, n)
            if cand.left.n + cand.right.n == 4:
                break
            n += 1
        assert got == Done(cand)

    def test_explicit_point(self):
        phi = Comp(EqNat(), Pair(Comp(Succ(), ARG), IDX))
        assert define_by_exists(phi, N(2), 20, point=N(0)) == Done(N(3))


class TestMuAgreement:
    def test_templates_agree(self):
        dbl = Comp(add, Pair(IDX, IDX))
        phis = [
            Comp(EqNat(), Pair(ARG, IDX)),
            Comp(EqNat(), Pair(ARG, dbl)),
            NEVER,
            Comp(EqNat(), Pair(Comp(monus, Pair(ARG, IDX)), Comp(zero_n, ARG))),
        ]
        samples = [N(a) for a in range(8)]
        for phi in phis:
            report = mu_agreement_check(phi, samples, 30)
            assert report.ok
            assert len(report.entries) == 8

    def test_never_true_counts_as_agreement(self):
        report = mu_agreement_check(NEVER, [N(0), N(5)], 15)
        assert report.ok
        for e in report.entries:
            assert e.searched is None and e.brute is None


class TestPartialMapValidation:
    def test_make_partial_rejects_bad_predicate(self):
        with pytest.raises(TypeMismatch):
            make_partial(NAT, NAT, Comp(Succ(), ARG), IDX)

    def test_make_partial_rejects_bad_core(self):
        with pytest.raises(TypeMismatch):
            make_partial(NAT, NAT, HALF_ZETA, Succ())
        with pytest.raises(TypeMismatch):
            make_partial(NAT, NAT, HALF_ZETA, HALF_ZETA)

    def test_count_term_matches_host(self):
        for obj in (NAT, NN, Prod(NN, NAT)):
            t = _count_term(obj)
            for n in range(40):
                assert eval_structural(t, N(n)) == cont_raw(obj, n)

    def test_eq_term(self):
        t = _eq_term(NN)
        assert eval_structural(t, P(_pp(1, 2), _pp(1, 2))) == N(1)
        assert eval_structural(t, P(_pp(1, 2), _pp(2, 1))) == N(0)
        u = _eq_term(UNIT)
        from prcalc.term import UNITV
        assert eval_structural(u, P(UNITV, UNITV)) == N(1)


class TestInstanceFiles:
    def test_round_trip_subtractive(self):
        inst = gcd_subtractive_cci()
        src = (f"(cci {print_obj(inst.space)} "
               f"{print_term(inst.c)} {print_term(inst.p)})")
        assert load_cci(src) == inst

    def test_round_trip_budgeted(self):
        inst = gcd_cci()
        src = (f"(cci {print_obj(inst.space)} "
               f"{print_term(inst.c)} {print_term(inst.p)})")
        loaded = load_cci(src)
        assert loaded == inst
        got = cci_run(loaded, gcd_state(20, 8), 60)
        assert isinstance(got, CCIDone)
        assert got.value.left == N(4)

    def test_rejects_malformed(self):
        for src in ("(cci N succ)", "(gcd N succ succ)", "cci", ""):
            with pytest.raises(ParseError):
                load_cci(src)
        inst = gcd_subtractive_cci()
        src = (f"(cci {print_obj(inst.space)} "
               f"{print_term(inst.c)} {print_term(inst.p)}) extra")
        with pytest.raises(ParseError):
            load_cci(src)


class TestHostArithmeticAgreement:
    """The search layers' terms give the same values evaluated directly, with
    host arithmetic at every stdlib node, and on the plain tree walk
    throughout (the `plain` fixture empties the host table)."""

    @staticmethod
    def _agree(t, args, plain):
        for v in args:
            assert eval_structural(t, v) == plain(eval_structural, t, v), v

    def test_gcd_partial(self, plain):
        f = gcd_partial()
        rng = random.Random("host:gcd_partial")
        args = [P(_pp(rng.randrange(40), rng.randrange(40)),
                  N(rng.randrange(60))) for _ in range(40)]
        self._agree(f.domain_obj.chi, args, plain)
        self._agree(f.hat, args, plain)

    def test_choice_inverses_of_the_law_maps(self, plain):
        rng = random.Random("host:inverse")
        maps = [total_as_partial(Succ()),
                total_as_partial(Comp(add, Pair(Id(NAT), Id(NAT)))),
                half_partial(), pred_partial(), gcd_partial()]
        for f in maps:
            g = middle_inverse_partial(f)
            args = [P(N(rng.randrange(12)), N(rng.randrange(150)))
                    for _ in range(30)]
            self._agree(g.domain_obj.chi, args, plain)
            self._agree(g.hat, args, plain)

    def test_gcd_cci(self, plain):
        inst = gcd_cci()
        rng = random.Random("host:gcd_cci")
        args = [P(N(rng.randrange(100)),
                  _pp(rng.randrange(100), rng.randrange(30))) for _ in range(40)]
        self._agree(inst.c, args, plain)
        self._agree(inst.p, args, plain)
        # the last run stops on fuel
        for a, b, fuel in [(12, 18, 100), (35, 14, 100), (1, 1, 100),
                           (97, 0, 100), (0, 64, 100), (89, 55, 100), (9, 6, 2)]:
            state = gcd_state(a, b)
            assert cci_run(inst, state, fuel) == plain(cci_run, inst, state, fuel)

    def test_random_predicates(self, plain):
        rng = random.Random("host:predicates")
        for _ in range(12):
            phi = random_predicate(rng, NN)
            self._agree(phi, [_pp(a, n) for a in range(0, 30, 3)
                              for n in range(12)], plain)
