"""Parser/printer round-trip and error-position tests."""

import random

import pytest

from prcalc import gen
from prcalc.surface import (
    ParseError, RefusesConstVal, parse_lines, parse_obj, parse_term,
    parse_value, print_obj, print_term, print_value,
)
from prcalc.term import (
    Abstr, Comp, ConstVal, Cyl, Id, Iter, NAT, NN, NatV, PairV, Prod, ProjL,
    Succ, TWO, TypeMismatch, UNIT, UNITV, add, lt2, monus, pred, typecheck,
)


class TestParseTerm:
    def test_iter_succ(self):
        assert parse_term("(iter succ)") == Iter(Succ())

    def test_comp_succ_projl(self):
        assert parse_term("(comp succ (projl N N))") == Comp(
            Succ(), ProjL(NAT, NAT))

    def test_missing_pair_component(self):
        with pytest.raises(ParseError) as exc:
            parse_term("(pair succ)")
        assert 0 <= exc.value.position <= len("(pair succ)")

    def test_stdlib_names_resolve(self):
        assert parse_term("pred") == pred
        assert parse_term("add") == add
        assert parse_term("(iter pred)") == monus

    def test_whitespace_and_comments(self):
        src = "( iter ; the endomap\n    succ )  ; trailing"
        assert parse_term(src) == Iter(Succ())

    def test_abstraction_forms(self):
        t = parse_term("(incl N (comp true (bang N)))")
        ab = t.ab
        assert ab.carrier == NAT
        assert parse_term("(restrict succ N (comp true (bang N)))") is not None

    def test_typecheck_runs(self):
        # grammatically fine, ill-typed: succ after bang
        with pytest.raises(TypeMismatch):
            parse_term("(comp succ (bang N))")

    def test_error_positions_and_expectations(self):
        cases = [
            "",
            "(",
            "(id",
            "(id 1",
            "(frob 1)",
            "(pair succ)",
            "42",
            "(iter succ) extra",
            "(x N N)",
            ")",
        ]
        for src in cases:
            with pytest.raises(ParseError) as exc:
                parse_term(src)
            assert 0 <= exc.value.position <= len(src)
            assert exc.value.expectation

    def test_parse_lines(self):
        src = "; corpus\n(iter succ)\n\nsucc\n"
        got = parse_lines(src)
        assert got == [(2, Iter(Succ())), (4, Succ())]


class TestTokenEdges:
    """Whitespace is exactly space, tab, CR and LF; a comment runs to the
    end of its line; anything else, however exotic, is token text."""

    @pytest.mark.parametrize("parse, src, position, expectation", [
        (parse_term, "a;b c", 0, "a term"),
        (parse_value, "(,) ;", 1, "a value"),
        (parse_term, "\r\n", 2, "a term"),
        (parse_term, "succ\x0bsucc", 0, "a term"),
        (parse_term, "(iter succ\x0b)", 6, "a term"),
        (parse_term, "(id \u2115)", 4, "an object"),
        (parse_obj, "(x N \u2115)", 5, "an object"),
        (parse_term, "; only a comment", 16, "a term"),
    ])
    def test_error_positions(self, parse, src, position, expectation):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert (exc.value.position, exc.value.expectation) == (
            position, expectation)

    def test_separators(self):
        assert parse_term("(iter\r\nsucc)\r\n") == Iter(Succ())
        assert parse_term("(comp\tsucc\t(projl N N))") == Comp(
            Succ(), ProjL(NAT, NAT))
        assert parse_term("(iter;c\nsucc);") == Iter(Succ())
        assert parse_lines("; only a comment") == []


class TestParseObj:
    def test_leaves(self):
        assert parse_obj("1") == UNIT
        assert parse_obj("N") == NAT
        assert parse_obj("(x N N)") == NN

    def test_abstr(self):
        two = parse_obj("(abstr N " + print_term(lt2) + ")")
        assert two == TWO

    def test_bad_predicate_rejected(self):
        with pytest.raises(TypeMismatch):
            parse_obj("(abstr N succ)")

    def test_errors(self):
        for src in ["", "(", "(x N)", "(y 1 1)", "succ", "N N"]:
            with pytest.raises(ParseError) as exc:
                parse_obj(src)
            assert 0 <= exc.value.position <= len(src)


class TestValues:
    def test_literals(self):
        assert parse_value("7") == NatV(7)
        assert parse_value("()") == UNITV
        assert parse_value("(3,4)") == PairV(NatV(3), NatV(4))
        assert parse_value("((1,2),())") == PairV(
            PairV(NatV(1), NatV(2)), UNITV)

    def test_print_parse_round_trip(self):
        vals = [NatV(0), NatV(123), UNITV,
                PairV(NatV(2), PairV(UNITV, NatV(9)))]
        for v in vals:
            assert parse_value(print_value(v)) == v

    def test_errors(self):
        # "\u00b2" (superscript two) passes str.isdigit but is no numeral
        for src in ["", "(3,)", "(,4)", "(3 4)", "abc", "(3,4", "\u00b2"]:
            with pytest.raises(ParseError) as exc:
                parse_value(src)
            assert 0 <= exc.value.position <= len(src)


class TestPrint:
    def test_canonical_forms(self):
        assert print_term(Iter(Succ())) == "(iter succ)"
        assert print_obj(Prod(NAT, UNIT)) == "(x N 1)"
        # stdlib names are sugar: printing yields the expansion
        assert print_term(add) == "(iter succ)"
        assert parse_term(print_term(monus)) == monus

    def test_refuses_machine_constants(self):
        t = ConstVal(NAT, NatV(3))
        with pytest.raises(RefusesConstVal):
            print_term(t)
        sigil = print_term(t, const_sigil=True)
        assert sigil.startswith("{const ")
        with pytest.raises(ParseError):
            parse_term(sigil)

    def test_sigil_inside_composite(self):
        t = Comp(Succ(), ConstVal(NAT, NatV(0)))
        with pytest.raises(RefusesConstVal):
            print_term(t)
        assert "{const N 0}" in print_term(t, const_sigil=True)

    def test_round_trip_random_terms(self):
        rng = random.Random(23)
        for _ in range(1000):
            a = gen.random_obj(rng, rng.randrange(3))
            b = gen.random_obj(rng, rng.randrange(3))
            t = gen.random_term(rng, a, b, depth=rng.randrange(4))
            typecheck(t)
            assert parse_term(print_term(t)) == t

    def test_round_trip_objects(self):
        rng = random.Random(29)
        for _ in range(200):
            obj = gen.random_obj(rng, rng.randrange(4))
            assert parse_obj(print_obj(obj)) == obj
