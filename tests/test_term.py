"""Typing, evaluation, and the derived-map library."""

import copy
import pickle
import random
from pathlib import Path

import pytest

from prcalc.coding import cont_raw
from prcalc.gen import random_obj, random_term
from prcalc.surface import parse_term, print_term
from prcalc.term import (
    Abstr, Bang, CDot, Comp, ConstVal, Cyl, DMinus, EDot, EqNat, EvalError,
    FalseC, HashC, Id, Incl, Iter, NAT, NN, NatV, NotC, Pair, PairV, Prod,
    ProjL, ProjR, Restrict, STDLIB, Succ, TWO, TrueC, TypeMismatch, UNIT,
    UNITV, UnitV, ZeroC, add, cantor_pair, cantor_unpair, cond, eq,
    eq0, eq_sample, eval_structural, find_point, has_abstr, leq, lt2,
    mod_cycle, monus, mul, obj_check, pred, shape_fits, swap, tri, two_and, two_or, typecheck,
    value_check, value_shape, zero_value,
)
from prcalc import term

N = NatV
P = PairV

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def ev(t, v):
    return eval_structural(t, v)


def nat2(m, k):
    return P(N(m), N(k))


# host oracles for the derived maps
def h_pair(x, y):
    return (x + y) * (x + y + 1) // 2 + y


def h_monus(m, k):
    return max(m - k, 0)


class TestTypecheck:
    def test_iter_succ(self):
        assert typecheck(Iter(Succ())) == (NN, NAT)

    def test_comp_mismatch(self):
        with pytest.raises(TypeMismatch):
            typecheck(Comp(Succ(), Bang(NAT)))

    def test_incl_two(self):
        assert typecheck(Incl(TWO)) == (TWO, NAT)

    def test_pair_domain_mismatch(self):
        with pytest.raises(TypeMismatch):
            typecheck(Pair(Succ(), TrueC()))

    def test_iter_needs_endo(self):
        with pytest.raises(TypeMismatch):
            typecheck(Iter(Pair(Succ(), Succ())))

    def test_restrict_carrier_mismatch(self):
        with pytest.raises(TypeMismatch):
            typecheck(Restrict(Pair(Succ(), Succ()), TWO))

    def test_constval_shape(self):
        assert typecheck(ConstVal(NN, nat2(1, 2))) == (UNIT, NN)
        with pytest.raises(TypeMismatch):
            typecheck(ConstVal(NN, N(3)))

    def test_reflected_typings(self):
        assert typecheck(CDot()) == (NN, NAT)
        assert typecheck(EDot()) == (NN, NN)
        assert typecheck(HashC()) == (NAT, NAT)
        assert typecheck(DMinus(CDot(), EDot())) == (NN, Prod(NN, NAT))
        with pytest.raises(TypeMismatch):
            typecheck(DMinus(EDot(), EDot()))  # complexity code must land in N
        with pytest.raises(TypeMismatch):
            typecheck(DMinus(CDot(), Succ()))  # step must share the domain

    def test_stdlib_typings(self):
        assert typecheck(pred) == (NAT, NAT)
        for name in ("add", "mul", "monus", "cantor_pair"):
            assert typecheck(STDLIB[name]) == (NN, NAT)
        assert typecheck(leq) == (NN, TWO)
        assert typecheck(eq) == (NN, TWO)
        assert typecheck(cantor_unpair) == (NAT, NN)
        assert typecheck(lt2) == (NAT, TWO)
        obj_check(TWO)

    def test_cond_typings(self):
        for obj in (NAT, UNIT, NN, TWO, Prod(TWO, NAT)):
            assert typecheck(cond(obj)) == (Prod(TWO, Prod(obj, obj)), obj)


class TestInterning:
    NODES = [Comp(Succ(), Pair(Id(NAT), Comp(ZeroC(NAT), Bang(NAT)))), mul,
             TWO, Abstr(NN, Comp(eq0, ProjL(NAT, NAT))), Prod(TWO, NN),
             ConstVal(NN, nat2(3, 4)), ConstVal(NAT, N(10 ** 40))]

    def test_copies_are_the_same_node(self):
        for t in self.NODES:
            assert copy.copy(t) is t
            assert copy.deepcopy(t) is t
            assert copy.deepcopy([t, (t, 1)])[1][0] is t
            assert pickle.loads(pickle.dumps(t)) is t

    def test_equal_constructions_are_one_node(self):
        assert Comp(Succ(), Id(NAT)) is Comp(Succ(), Id(NAT))
        assert Comp(Succ(), Id(NAT)) is not Comp(Id(NAT), Succ())
        assert Abstr(NAT, lt2) is TWO
        assert Prod(NAT, NAT) is NN
        # values stay structural: equal values give one literal node
        assert ConstVal(NN, P(N(1), N(2))) is ConstVal(Prod(NAT, NAT), nat2(1, 2))
        assert ConstVal(NAT, N(1)) is not ConstVal(TWO, N(1))

    @pytest.mark.parametrize("name", sorted(STDLIB))
    def test_parsed_expansion_is_the_stdlib_node(self, name):
        text = print_term(STDLIB[name])
        assert text.startswith("(")  # the full tree, no name
        assert parse_term(text) is STDLIB[name]

    def test_facts_are_stored_on_the_node(self):
        # a literal no other test builds, so the nodes start bare
        k = Comp(ConstVal(NAT, N(918273645)), Bang(NN))
        t = Comp(HashC(), Comp(Succ(), k))
        assert not hasattr(t, "_ty") and not hasattr(k, "_ty")
        assert typecheck(t) == (NN, NAT)
        assert t._ty == (NN, NAT) and k._ty == (NN, NAT)
        ab = Abstr(NN, Comp(EqNat(), Pair(ProjR(NAT, NAT), k)))
        assert not hasattr(ab, "_ok")
        obj_check(ab)
        assert hasattr(ab, "_ok")

    def test_repr_and_arity(self):
        assert repr(Comp(Succ(), Id(NN))) == (
            "Comp(g=Succ(), f=Id(obj=Prod(left=Nat, right=Nat)))")
        assert repr(ConstVal(UNIT, UNITV)) == "ConstVal(obj=Unit, value=UnitV)"
        with pytest.raises(TypeError):
            Comp(Succ())
        with pytest.raises(TypeMismatch, match="not an object"):
            typecheck(Id(Succ()))


class TestValues:
    def test_shapes(self):
        assert value_shape(nat2(0, 3)) == NN
        assert value_shape(UNITV) == UNIT
        assert shape_fits(TWO, N(5))  # shape ignores the predicate
        assert not shape_fits(NN, N(5))

    def test_zero(self):
        assert zero_value(Prod(NN, UNIT)) == P(nat2(0, 0), UNITV)
        assert zero_value(TWO) == N(0)

    def test_membership(self):
        assert value_check(TWO, N(0))
        assert value_check(TWO, N(1))
        assert not value_check(TWO, N(2))
        assert value_check(Prod(TWO, NAT), P(N(1), N(9)))
        assert not value_check(Prod(TWO, NAT), P(N(3), N(9)))


class TestEval:
    def test_frozen_examples(self):
        assert ev(monus, nat2(3, 5)) == N(0)
        assert ev(add, nat2(2, 3)) == N(5)
        assert ev(Iter(Succ()), nat2(3, 5)) == N(8)
        assert ev(mul, nat2(6, 7)) == N(42)
        assert ev(Id(NAT), N(4)) == N(4)

    def test_arith_grid(self):
        for m in range(16):
            assert ev(pred, N(m)) == N(h_monus(m, 1))
            for k in range(16):
                v = nat2(m, k)
                assert ev(add, v) == N(m + k)
                assert ev(monus, v) == N(h_monus(m, k))
                assert ev(mul, v) == N(m * k)
                assert ev(leq, v) == N(1 if m <= k else 0)
                assert ev(eq, v) == N(1 if m == k else 0)

    def test_arith_sampled(self):
        rng = random.Random(11)
        for _ in range(60):
            m, k = rng.randrange(1000), rng.randrange(1000)
            assert ev(add, nat2(m, k)) == N(m + k)
        for _ in range(25):
            m, k = rng.randrange(300), rng.randrange(300)
            assert ev(monus, nat2(m, k)) == N(h_monus(m, k))
            assert ev(leq, nat2(m, k)) == N(1 if m <= k else 0)
            assert ev(eq, nat2(m, k)) == N(1 if m == k else 0)
        for _ in range(40):
            m, k = rng.randrange(100), rng.randrange(100)
            assert ev(mul, nat2(m, k)) == N(m * k)
        assert ev(monus, nat2(997, 990)) == N(7)
        assert ev(mul, nat2(999, 251)) == N(999 * 251)

    def test_small_maps(self):
        assert ev(swap, nat2(3, 9)) == nat2(9, 3)
        assert ev(tri, N(5)) == N(10)
        assert ev(eq0, N(0)) == N(1)
        assert ev(eq0, N(3)) == N(0)
        assert ev(lt2, N(1)) == N(1)
        assert ev(lt2, N(2)) == N(0)
        assert ev(Bang(NN), nat2(4, 4)) == UNITV
        assert ev(ZeroC(NN), UNITV) == nat2(0, 0)
        assert ev(Cyl(NAT, Succ()), nat2(7, 1)) == nat2(7, 2)
        assert ev(ConstVal(NAT, N(9)), UNITV) == N(9)

    def test_truth_table(self):
        assert ev(TrueC(), UNITV) == N(1)
        assert ev(FalseC(), UNITV) == N(0)
        for b in (0, 1):
            assert ev(NotC(), N(b)) == N(1 - b)
            for c in (0, 1):
                assert ev(two_and, nat2(b, c)) == N(b & c)
                assert ev(two_or, nat2(b, c)) == N(b | c)
        assert ev(EqNat(), nat2(4, 4)) == N(1)
        assert ev(EqNat(), nat2(4, 5)) == N(0)

    def test_cond_picks_branches(self):
        c = cond(NAT)
        assert ev(c, P(N(1), nat2(7, 9))) == N(7)
        assert ev(c, P(N(0), nat2(7, 9))) == N(9)
        cp = cond(NN)
        assert ev(cp, P(N(1), P(nat2(1, 2), nat2(3, 4)))) == nat2(1, 2)
        assert ev(cp, P(N(0), P(nat2(1, 2), nat2(3, 4)))) == nat2(3, 4)
        ct = cond(TWO)
        assert ev(ct, P(N(1), nat2(0, 1))) == N(0)
        assert ev(ct, P(N(0), nat2(0, 1))) == N(1)

    def test_restrict_checks_at_runtime(self):
        two_const = Comp(Succ(), Comp(Succ(), Comp(ZeroC(NAT), Bang(NAT))))
        ok = Restrict(Comp(ZeroC(NAT), Bang(NAT)), TWO)
        assert ev(ok, N(17)) == N(0)
        bad = Restrict(two_const, TWO)
        with pytest.raises(EvalError):
            ev(bad, N(17))

    def test_zero_section_of_empty_abstraction(self):
        empty = Abstr(NAT, Comp(FalseC(), Bang(NAT)))
        with pytest.raises(EvalError):
            ev(ZeroC(empty), UNITV)

    def test_reflected_refused(self):
        for t in (CDot(), EDot(), HashC(), DMinus(CDot(), EDot())):
            with pytest.raises(EvalError):
                ev(t, nat2(0, 0))

    def test_shape_errors(self):
        with pytest.raises(EvalError):
            ev(ProjL(NAT, NAT), N(3))
        with pytest.raises(EvalError):
            ev(Succ(), UNITV)
        with pytest.raises(EvalError):
            ev(NotC(), N(2))

    def test_iter_large_count(self):
        assert ev(add, nat2(0, 10_000)) == N(10_000)


class TestCantorMaps:
    def test_pair_matches_host(self):
        rng = random.Random(5)
        assert ev(cantor_pair, nat2(1, 2)) == N(8)
        for _ in range(20):
            x, y = rng.randrange(256), rng.randrange(256)
            assert ev(cantor_pair, nat2(x, y)) == N(h_pair(x, y))

    def test_round_trip_exhaustive(self):
        for x in range(8):
            for y in range(8):
                n = ev(cantor_pair, nat2(x, y))
                assert n == N(h_pair(x, y))
                assert ev(cantor_unpair, n) == nat2(x, y)

    def test_round_trip_sampled(self):
        rng = random.Random(7)
        for _ in range(5):
            x, y = rng.randrange(32), rng.randrange(32)
            assert ev(cantor_unpair, N(h_pair(x, y))) == nat2(x, y)


class TestEqSample:
    def test_agree(self):
        assert eq_sample(Id(NAT), Comp(pred, Succ()), 100) is None

    def test_disagree_witness(self):
        assert eq_sample(Succ(), Id(NAT), 1) == N(0)

    def test_reflexive(self):
        assert eq_sample(mul, mul, 25) is None

    def test_typing_must_match(self):
        with pytest.raises(TypeMismatch):
            eq_sample(Succ(), add, 5)


def scan_every_index(obj, fuel):
    """Reference for find_point: every index of the count is checked, with
    no shortcut for objects without abstractions."""
    for n in range(fuel):
        v = cont_raw(obj, n)
        if value_check(obj, v):
            return v
    return None


class TestFindPoint:
    def test_matches_the_full_scan(self):
        objs = []
        for path in sorted(CORPUS.glob("*.pr")):
            objs.extend(typecheck(parse_term(path.read_text())))
        rng = random.Random("find-point")
        for _ in range(60):
            a, b = random_obj(rng, 4), random_obj(rng, 4)
            objs.extend(typecheck(random_term(rng, a, b, 3)))
        positive = Abstr(NAT, Comp(NotC(), eq0))
        empty = Abstr(NAT, Comp(FalseC(), Bang(NAT)))
        objs += [positive, Prod(NN, positive), empty, Prod(empty, NAT)]
        assert sum(map(has_abstr, objs)) >= 10
        for obj in objs:
            assert find_point(obj, 512) == scan_every_index(obj, 512), obj
        assert find_point(Prod(NN, positive), 512) == P(nat2(0, 0), N(1))
        assert find_point(empty, 512) is None


def outcome(t, v):
    """The value of t at v, or the text of the EvalError it raises."""
    try:
        return ev(t, v)
    except EvalError as e:
        return f"EvalError: {e}"


# arguments for the host-table differential: small grids, arguments past
# 10^3 (the plain walk is quadratic in some of them), negative naturals and
# values of the wrong shape
HOST_ARGS = {
    NAT: [N(n) for n in range(8)] + [
        N(1001), N(1234), N(-1), N(-2), UNITV, nat2(1, 2), P(UNITV, N(1))],
    NN: [nat2(m, k) for m in range(5) for k in range(5)] + [
        nat2(1001, 2), nat2(2, 1001), nat2(1234, 1), nat2(-2, 3), nat2(3, -2),
        nat2(-1, -1), nat2(0, -1), N(3), N(-3), UNITV, P(N(1), UNITV),
        P(UNITV, N(2)), P(nat2(1, 2), N(3)), P(N(3), nat2(1, 2))],
    # ((r, k), a) for mod_cycle: r >= k, k = 0 and a = 0 all in the grid
    Prod(NN, NAT): [P(nat2(r, k), N(a)) for r in range(6) for k in range(6)
                    for a in (0, 1, 2, 5, 13)] + [
        P(nat2(0, 7), N(1001)), P(nat2(3, 1000), N(1234)),
        P(nat2(9, 4), N(1001)), P(nat2(2, 0), N(1234)),
        P(nat2(-1, 3), N(4)), P(nat2(1, -3), N(4)), P(nat2(1, 3), N(-4)),
        P(nat2(-2, -2), N(-2)), N(3), UNITV, nat2(1, 2), P(nat2(1, 2), UNITV),
        P(P(N(1), UNITV), N(2)), P(P(UNITV, N(1)), N(2)),
        P(P(nat2(1, 2), N(3)), N(2)), P(nat2(1, 2), nat2(1, 2))],
}


HOST_NAMES = ["pred", "eq0", "lt2", "tri", "cantor_unpair", "add", "monus",
              "mul", "leq", "eq", "cantor_pair", "mod_cycle"]


class TestHostArithmetic:
    def test_table_covers_the_named_stdlib_nodes(self):
        assert (list(term._HOST)
                == [getattr(term, name) for name in HOST_NAMES])

    @pytest.mark.parametrize("name", HOST_NAMES)
    def test_entry_matches_the_plain_walk(self, name, plain):
        node = getattr(term, name)
        assert node in term._HOST
        assert plain(lambda: node in term._HOST) is False
        for v in HOST_ARGS[typecheck(node)[0]]:
            assert outcome(node, v) == plain(outcome, node, v), v

    def test_out_of_contract_results_fall_through(self):
        # the tree walk's values; the host formulas would give -3, 5, 3, 1
        # and a ValueError from isqrt
        assert ev(mul, nat2(3, -1)) == N(0)
        assert ev(monus, nat2(3, -2)) == N(3)
        assert ev(tri, N(-2)) == N(0)
        assert ev(eq, nat2(-1, -1)) == N(0)
        assert ev(cantor_unpair, N(-1)) == nat2(0, 0)
        with pytest.raises(EvalError, match="iteration needs"):
            ev(pred, UNITV)

    def test_host_path_takes_huge_arguments(self):
        big = 10 ** 40
        assert ev(pred, N(big)) == N(big - 1)
        assert ev(mul, nat2(big, big)) == N(big * big)
        assert ev(monus, nat2(big, 1)) == N(big - 1)
        assert ev(cantor_unpair, ev(cantor_pair, nat2(big, 7))) == nat2(big, 7)
        assert ev(leq, nat2(big, big + 1)) == N(1)
        assert ev(tri, N(big)) == N(big * (big - 1) // 2)
        assert ev(lt2, N(big)) == N(0)
        assert ev(mod_cycle, P(nat2(3, 7), N(big))) == nat2((3 + big) % 7, 7)
        assert ev(mod_cycle, P(nat2(9, 7), N(big))) == nat2(9 + big, 7)
        assert ev(mod_cycle, P(nat2(0, 0), N(big))) == nat2(big, 0)
