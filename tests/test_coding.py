"""Code numbering, canonical counts, and the predicate count."""

import random

import pytest

from prcalc import coding
from prcalc.coding import (
    IllTyped, NotAPredicateCode, cantor_pair, cantor_unpair, cont, cont_raw,
    contains_constval, decode, from_num, hashc_num, num, obj_rank,
    obj_unrank, pred_count_hash, pred_count_inverse, quote, rank_code,
    unrank_code,
)
from prcalc.term import (
    Abstr, Bang, Comp, ConstVal, Id, Iter, NAT, NN, NatV, Pair, PairV, Prod,
    STDLIB, Succ, TWO, UNIT, UNITV, ZeroC, eq0, leq, lt2, mod_cycle, mul,
    typecheck,
)
from prcalc.term import cantor_unpair as cantor_unpair_term

N = NatV
P = PairV


def h_pair(x, y):
    return (x + y) * (x + y + 1) // 2 + y


class TestCantor:
    def test_examples(self):
        assert cantor_pair(0, 0) == 0
        assert cantor_pair(1, 2) == 8

    def test_round_trip(self):
        for n in range(2 ** 16):
            x, y = cantor_unpair(n)
            assert cantor_pair(x, y) == n
        rng = random.Random(3)
        for _ in range(200):
            x, y = rng.randrange(10 ** 9), rng.randrange(10 ** 9)
            assert cantor_unpair(cantor_pair(x, y)) == (x, y)
        assert cantor_pair(*cantor_unpair(2 ** 61 + 7)) == 2 ** 61 + 7


class TestCont:
    def test_examples(self):
        assert cont(NAT, N(0), 7) == N(7)
        assert cont(NN, P(N(0), N(0)), 8) == P(N(1), N(2))
        assert cont(TWO, N(0), 5) == N(0)  # 5 fails the predicate: fall back
        assert cont(TWO, N(0), 1) == N(1)
        assert cont(UNIT, UNITV, 9) == UNITV

    def test_surjective_at_desk_scale(self):
        hit = set()
        for n in range(2 ** 13):
            v = cont(NN, P(N(0), N(0)), n)
            if v.left.n < 50 and v.right.n < 50:
                hit.add((v.left.n, v.right.n))
        assert len(hit) == 50 * 50

    def test_abstraction_members_all_hit(self):
        seen = {cont(TWO, N(0), n) for n in range(4)}
        assert seen == {N(0), N(1)}

    def test_cont_raw_shapes(self):
        assert cont_raw(Prod(UNIT, NAT), 4) == P(UNITV, N(cantor_unpair(4)[1]))
        assert cont_raw(TWO, 7) == N(7)  # raw count ignores predicates


class TestQuote:
    def test_identity_and_typing(self):
        assert quote(Succ()) == Succ()
        assert decode(quote(Iter(Succ()))) == Iter(Succ())
        with pytest.raises(IllTyped):
            decode(Comp(Succ(), Bang(NAT)))

    def test_num_separates(self):
        assert num(quote(Succ())) != num(quote(Id(NAT)))

    def test_contains_constval(self):
        assert not contains_constval(mul)
        assert contains_constval(Comp(ConstVal(NAT, N(2)), Bang(NAT)))


TYPINGS = [
    (NAT, NAT), (NAT, TWO), (NN, NAT), (UNIT, TWO), (TWO, TWO),
    (NN, NN), (NAT, NN), (Prod(NN, NAT), NN), (UNIT, NAT),
]


class TestRanking:
    def test_round_trip_small(self):
        for a, b in TYPINGS:
            for n in range(300):
                c = unrank_code(a, b, n)
                assert typecheck(c) == (a, b)
                assert rank_code(a, b, c) == n

    def test_round_trip_has_no_constval(self):
        # machine constants are numbered by the structural code, never ranked
        for a, b in [(UNIT, NAT), (UNIT, NN), (NAT, NAT)]:
            for n in range(200):
                c = unrank_code(a, b, n)
                assert typecheck(c) == (a, b)
                assert not contains_constval(c)
                assert rank_code(a, b, c) == n
        with pytest.raises(IllTyped):
            rank_code(UNIT, NAT, ConstVal(NAT, N(3)))

    def test_big_indices(self):
        rng = random.Random(17)
        for _ in range(40):
            a, b = rng.choice(TYPINGS)
            n = rng.randrange(10 ** 12)
            c = unrank_code(a, b, n)
            assert rank_code(a, b, c) == n

    def test_known_stdlib_codes_rank(self):
        # every stdlib map must sit somewhere in its typing's count
        for t in (mul, leq, eq0, lt2):
            a, b = typecheck(t)
            assert unrank_code(a, b, rank_code(a, b, t)) == t


class TestObjRanking:
    def test_reserved_slots(self):
        assert obj_rank(UNIT) == 0
        assert obj_rank(NAT) == 1
        assert obj_rank(TWO) == 2
        assert obj_unrank(2) == TWO
        assert obj_rank(NN) == 3 + 2 * cantor_pair(1, 1)

    def test_round_trip(self):
        for n in range(400):
            assert obj_rank(obj_unrank(n)) == n
        for o in (UNIT, NAT, TWO, NN, Prod(TWO, NAT), Prod(UNIT, Prod(NAT, TWO))):
            assert obj_unrank(obj_rank(o)) == o

    def test_two_is_interned_not_duplicated(self):
        # the abstraction slot that would re-encode Two is skipped
        seen = set()
        for n in range(400):
            o = obj_unrank(n)
            assert o not in seen
            seen.add(o)


class TestNum:
    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(200):
            a, b = rng.choice(TYPINGS)
            c = unrank_code(a, b, rng.randrange(10 ** 6))
            assert from_num(num(c)) == c

    def test_non_canonical_number_rejected(self):
        n = cantor_pair(1, cantor_pair(1, 2 * rank_code(NAT, NAT, Succ()) + 1))
        with pytest.raises(IllTyped):
            from_num(n)

    def test_injective_on_random_codes(self):
        rng = random.Random(41)
        seen = {}
        for _ in range(10 ** 4):
            a, b = rng.choice(TYPINGS)
            c = unrank_code(a, b, rng.randrange(10 ** 5))
            n = num(c)
            if n in seen:
                assert seen[n] == c
            else:
                seen[n] = c

    def test_machine_child_without_a_constant_is_not_canonical(self):
        # a surface subtree written in the machine child kind: it decodes
        # to a real code, but that code's number is another one
        g, f = Comp(Succ(), Succ()), Comp(ConstVal(NAT, N(4)), Bang(NAT))
        sd = coding.sd_pair
        g_machine = sd(1, sd(coding._SD_COMP, sd(coding._sd_child(Succ()),
                                                 coding._sd_child(Succ()))))
        slot = 2 * sd(coding._SD_COMP, sd(g_machine, coding._sd_child(f))) + 1
        n = cantor_pair(1, cantor_pair(1, slot))
        assert n != num(Comp(g, f))
        with pytest.raises(IllTyped, match="no machine constant"):
            from_num(n)

    def test_random_numbers_decode_or_are_refused(self):
        # every number of 8 to 4096 bits is its code's own number or
        # IllTyped, never another exception
        rng = random.Random("from_num:robust")
        decoded = 0
        for _ in range(200):
            bits = rng.randint(8, 4096)
            n = rng.getrandbits(bits) | 1 << (bits - 1)
            try:
                c = from_num(n)
            except IllTyped:
                continue
            assert num(c) == n, n
            decoded += 1
        assert decoded >= 50

    def test_constval_codes_get_odd_slots(self):
        c = Comp(ConstVal(NAT, N(4)), Bang(NAT))
        n = num(c)
        assert from_num(n) == c
        _, rest = cantor_unpair(n)
        _, slot = cantor_unpair(rest)
        assert slot % 2 == 1


# (bit length, value mod 2^61 - 1) of recorded code numbers: any change to
# the surface numbering moves them
NUM_PINS = {
    "pred": (802, 184275543321941129),
    "add": (13, 6658),
    "mul": (612, 1371779952722489097),
    "monus": (806, 1080598908411834257),
    "leq": (3213, 344407213038989270),
    "eq": (102766, 878879222170904028),
    "cantor_pair": (26197, 1474132174585540482),
    "lt2": (12823, 1881324751608044844),
    "mod_cycle": (29888, 1145902328015473523),
}
PIN_MOD = 2 ** 61 - 1


class TestPinnedNumbers:
    def test_succ_as_the_readme_shows(self):
        assert num(Succ()) == 53

    @pytest.mark.parametrize("name", sorted(NUM_PINS))
    def test_num(self, name):
        n = num(dict(STDLIB, lt2=lt2, mod_cycle=mod_cycle)[name])
        assert (n.bit_length(), n % PIN_MOD) == NUM_PINS[name]

    def test_cantor_unpair_rank(self):
        # its num has 26 M bits and takes seconds of pairing, so pin the
        # three parts num pairs: both object ranks and the 6.6 M-bit rank
        a, b = typecheck(cantor_unpair_term)
        r = rank_code(a, b, cantor_unpair_term)
        assert (obj_rank(a), obj_rank(b)) == (1, 11)
        assert (r.bit_length(), r % PIN_MOD) == (6565403, 489778132190307104)


class TestPredCount:
    def test_first_entry(self):
        assert pred_count_hash(0) == Comp(ZeroC(TWO), Bang(NAT))

    def test_mutually_inverse_on_500(self):
        for n in range(500):
            c = pred_count_hash(n)
            assert typecheck(c) == (NAT, TWO)
            assert pred_count_inverse(c) == n

    def test_num_monotone(self):
        last = -1
        for n in range(100):
            v = num(pred_count_hash(n))
            assert v > last
            last = v

    def test_rejections(self):
        with pytest.raises(NotAPredicateCode):
            pred_count_inverse(quote(Succ()))
        with pytest.raises(NotAPredicateCode):
            pred_count_inverse(Comp(ConstVal(TWO, N(1)), Bang(NAT)))

    def test_known_predicates_have_indices(self):
        for c in (eq0, lt2, Comp(eq0, Succ())):
            n = pred_count_inverse(c)
            assert pred_count_hash(n) == c

    def test_hashc_closed_form(self):
        for n in list(range(40)) + [2 ** 40 + 3]:
            assert hashc_num(n) == cantor_pair(1, cantor_pair(2, 2 * n))
        for n in range(40):
            assert hashc_num(n) == num(pred_count_hash(n))
