"""Whole-package checks at contract scale.

Everything here exercises shipped behavior end to end: machine against
structural evaluation across the full corpus with descending traces,
exhaustive pairing round-trips, choice and minimization laws at sampling
scale, while-loop instances against host arithmetic, and the recorded
self-referential probe.
"""

import io
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import pytest

from prcalc.cli import main as cli_main
from prcalc.coding import (
    cantor_pair,
    cantor_unpair,
    encode_ord,
    pred_count_hash,
    pred_count_inverse,
)
from prcalc.diagonal import liar_report_lines, run_liar
from prcalc.gen import nat_const, random_predicate, random_value
from prcalc.machine import (
    DescentViolation,
    Done,
    EvalFailure,
    FuelExhausted,
    NestedFuelExhausted,
    eval_iterative,
)
from prcalc.ordinal import descent_check
from prcalc.partial import (
    CCIDone,
    CCIInstance,
    cci_run,
    gcd_cci,
    gcd_partial,
    gcd_state,
    load_cci,
    make_partial,
    middle_inverse_partial,
    mu_search,
    par_apply,
    structural_middle_inverse,
    total_as_partial,
)
from prcalc.surface import parse_term
from prcalc.term import (
    NAT,
    NN,
    Bang,
    Comp,
    EqNat,
    EvalError,
    FalseC,
    Id,
    Iter,
    NatV,
    Pair,
    PairV,
    ProjL,
    ProjR,
    Succ,
    Term,
    add,
    eq0,
    eq_sample,
    eval_structural,
    has_abstr,
    typecheck,
    zero_n,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
DATA = Path(__file__).resolve().parent / "data"
FUEL = 10 ** 6

N = NatV
ARG = ProjL(NAT, NAT)
IDX = ProjR(NAT, NAT)


def _corpus_rows() -> List[Tuple[str, Term, int, int]]:
    rows = []
    for line in (CORPUS / "corpus.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, *pairs = line.split()
        spec = dict(p.split("=", 1) for p in pairs)
        term = parse_term((CORPUS / name).read_text())
        rows.append((name, term, int(spec["samples"]), int(spec["cap"])))
    return rows


def _iter_depth(t: Term) -> int:
    kids = [getattr(t, f) for f in t._fields]
    sub = max((_iter_depth(k) for k in kids if isinstance(k, Term)), default=0)
    return sub + (1 if isinstance(t, Iter) else 0)


@pytest.fixture(scope="session")
def corpus_rows():
    rows = _corpus_rows()
    assert rows, "corpus listing is empty"
    return rows


@dataclass
class SweepStats:
    args: int = 0
    mismatches: int = 0
    fuel_exhausted: int = 0
    descent_violations: int = 0
    traces: int = 0
    max_steps: int = 0
    elapsed: float = 0.0


@pytest.fixture(scope="session")
def sweep(corpus_rows):
    """One pass over every corpus term: machine run with full trace,
    structural oracle, and a descent check on each trace."""
    stats = SweepStats()
    start = time.monotonic()
    for name, term, samples, cap in corpus_rows:
        dom, _ = typecheck(term)
        rng = random.Random(f"sweep:{name}")
        for _ in range(samples):
            arg = random_value(rng, dom, cap)
            ords = []
            got = eval_iterative(term, arg, FUEL,
                                 on_record=lambda i, c: ords.append(c.ord()))
            try:
                expected = eval_structural(term, arg)
            except EvalError:
                expected = None
            if isinstance(got, Done):
                if expected is None or got.value != expected:
                    stats.mismatches += 1
            elif isinstance(got, (FuelExhausted, NestedFuelExhausted)):
                stats.fuel_exhausted += 1
            elif isinstance(got, DescentViolation):
                stats.descent_violations += 1
            elif not (isinstance(got, EvalFailure) and expected is None):
                stats.mismatches += 1
            if descent_check(ords) is not None:
                stats.descent_violations += 1
            stats.args += 1
            stats.traces += 1
            stats.max_steps = max(stats.max_steps, len(ords))
    stats.elapsed = time.monotonic() - start
    return stats


class TestCorpusAgreement:
    def test_corpus_is_broad_enough(self, corpus_rows):
        assert len(corpus_rows) >= 50
        deep = sum(_iter_depth(t) >= 3 for _, t, _, _ in corpus_rows)
        assert deep >= 5
        abstr = 0
        for _, t, _, _ in corpus_rows:
            dom, cod = typecheck(t)
            abstr += has_abstr(dom) or has_abstr(cod)
        assert abstr >= 5
        assert all(samples >= 100 for _, _, samples, _ in corpus_rows)

    def test_machine_matches_structural_everywhere(self, sweep, corpus_rows):
        assert sweep.args == sum(s for _, _, s, _ in corpus_rows)
        assert sweep.mismatches == 0
        assert sweep.fuel_exhausted == 0

    def test_run_fits_the_time_budget(self, sweep):
        assert sweep.elapsed < 300

    def test_every_trace_descends(self, sweep):
        assert sweep.traces == sweep.args
        assert sweep.descent_violations == 0
        assert 0 < sweep.max_steps < FUEL


class TestPairingAndCounting:
    def test_unpair_then_pair_is_identity_below_2_to_20(self):
        for n in range(1 << 20):
            x, y = cantor_unpair(n)
            assert cantor_pair(x, y) == n

    def test_pair_then_unpair_on_a_grid(self):
        for x in range(128):
            for y in range(128):
                assert cantor_unpair(cantor_pair(x, y)) == (x, y)

    def test_predicate_count_round_trips_first_500(self):
        seen = set()
        for i in range(500):
            code = pred_count_hash(i)
            assert pred_count_inverse(code) == i
            assert pred_count_hash(pred_count_inverse(code)) == code
            seen.add(code)
        assert len(seen) == 500


class TestChoiceLaws:
    def test_structural_law_on_every_fundamental_term(self, corpus_rows):
        fundamental = 0
        for name, t, _, _ in corpus_rows:
            dom, cod = typecheck(t)
            if has_abstr(dom) or has_abstr(cod):
                continue
            w = structural_middle_inverse(t)
            law = Comp(t, Comp(w, t))
            assert eq_sample(law, t, 200) is None, name
            fundamental += 1
        assert fundamental >= 20

    def test_partial_law_on_sampled_defined_args(self):
        half = make_partial(
            NAT, NAT,
            Comp(EqNat(), Pair(ARG, Comp(add, Pair(IDX, IDX)))), IDX)
        posdec = make_partial(
            NAT, NAT,
            Comp(EqNat(), Pair(ARG, Comp(Succ(), IDX))), IDX)
        # draws stay small: the preimage scan walks the canonical count
        maps = [
            ("succ", total_as_partial(Succ()),
             lambda r: N(r.randrange(12))),
            ("double", total_as_partial(Comp(add, Pair(Id(NAT), Id(NAT)))),
             lambda r: N(r.randrange(12))),
            ("half", half, lambda r: N(2 * r.randrange(5))),
            ("posdec", posdec, lambda r: N(r.randrange(1, 8))),
            ("gcd", gcd_partial(),
             lambda r: PairV(N(r.randrange(1, 7)), N(r.randrange(1, 7)))),
        ]
        for name, f, draw in maps:
            g = middle_inverse_partial(f)
            rng = random.Random(f"law:{name}")
            checked = 0
            for _ in range(100):
                a = draw(rng)
                first = par_apply(f, a, 4000)
                assert isinstance(first, Done), (name, a)
                back = par_apply(g, first.value, 200000)
                assert isinstance(back, Done), (name, a)
                again = par_apply(f, back.value, 4000)
                assert again == first, (name, a)
                checked += 1
            assert checked == 100


class TestMinimization:
    def test_search_matches_brute_force(self):
        rng = random.Random("minimization")
        predicates = [random_predicate(rng, NN) for _ in range(46)]
        predicates += [
            Comp(FalseC(), Bang(NN)),
            Comp(eq0, Comp(Succ(), IDX)),
            Comp(eq0, Comp(Succ(), ARG)),
            Comp(EqNat(), Pair(Comp(Succ(), ARG), ARG)),
        ]
        assert len(predicates) == 50
        budget = 64
        never_seen = 0
        for phi in predicates:
            for a in range(20):
                brute = None
                for n in range(budget):
                    if eval_structural(phi, PairV(N(a), N(n))) == N(1):
                        brute = n
                        break
                got = mu_search(phi, N(a), budget)
                if brute is None:
                    assert got == FuelExhausted(())
                    never_seen += 1
                else:
                    assert got == brute
        assert never_seen > 0


def _brute_force_index(inst: CCIInstance, a):
    state, steps = a, 0
    while eval_structural(inst.c, state) != N(0):
        state = eval_structural(inst.p, state)
        steps += 1
    return state, steps


class TestIterationInstances:
    def test_gcd_matches_host_oracle(self):
        inst = gcd_cci()
        rng = random.Random("gcd-oracle")
        for _ in range(100):
            a = rng.randrange(1, 10 ** 4)
            b = rng.randrange(1, 10 ** 4)
            got = cci_run(inst, gcd_state(a, b), FUEL)
            assert isinstance(got, CCIDone), (a, b)
            assert got.value.left.n == math.gcd(a, b), (a, b)
            final, steps = _brute_force_index(inst, gcd_state(a, b))
            assert got.index == steps, (a, b)
            assert got.value == final, (a, b)

    def test_gcd_plain_walk_matches_the_shared_mod_cycle(self, plain):
        # the oracle test above takes the mod cycle's host row on both
        # sides; with the host table emptied it takes the plain walk
        inst = gcd_cci()
        for a, b in [(12, 18), (299, 221), (144, 89), (0, 255), (256, 0),
                     (7, 7), (210, 294)]:
            got = cci_run(inst, gcd_state(a, b), FUEL)
            assert got == plain(cci_run, inst, gcd_state(a, b), FUEL), (a, b)
            assert got.value.left.n == math.gcd(a, b), (a, b)

    def test_gcd_partial_plain_walk_matches_the_shared_mod_cycle(self, plain):
        # the plain walk of the search is about cubic in a + b: small pairs
        f = gcd_partial()
        for a, b, fuel in [(12, 18, 100), (35, 14, 100), (0, 7, 100),
                           (17, 0, 100), (21, 13, 100), (35, 14, 20)]:
            arg = PairV(N(a), N(b))
            got = par_apply(f, arg, fuel)
            assert got == plain(par_apply, f, arg, fuel), (a, b, fuel)
        assert got == FuelExhausted(())

    def test_gcd_instance_file_is_the_built_tree(self):
        inst, built = load_cci((CORPUS / "gcd.cci").read_text()), gcd_cci()
        assert inst == built
        # the parsed instance is the built one's own nodes, host rows and all
        assert inst.c is built.c and inst.p is built.p
        assert inst.space is built.space

    def test_zero_complexity_is_stationary(self):
        inst = CCIInstance(NAT, zero_n, Id(NAT))
        for a in (0, 3, 11):
            assert cci_run(inst, N(a), 50) == CCIDone(N(a), 0)

    def test_non_descending_step_fails_immediately(self):
        # complexity stuck at the code for the ordinal (1)
        stuck = nat_const(encode_ord((1,)), NAT)
        inst = CCIInstance(NAT, stuck, Id(NAT))
        got = cci_run(inst, N(4), 50)
        assert isinstance(got, DescentViolation)
        assert got.step == 0


class TestDiagonalProbe:
    GOLDEN = DATA / "liar_fuel_100000.txt"

    def test_matches_the_recorded_run(self):
        start = time.monotonic()
        report = run_liar(100000)
        assert time.monotonic() - start < 600
        assert report.verdict != "ContradictionValue"
        text = "\n".join(liar_report_lines(report)) + "\n"
        assert text == self.GOLDEN.read_text()

    def test_matches_the_recorded_run_with_caches_off(self, caches_off):
        text = "\n".join(liar_report_lines(run_liar(100000))) + "\n"
        assert text == self.GOLDEN.read_text()

    def test_report_is_well_formed(self):
        lines = self.GOLDEN.read_text().splitlines()
        assert lines[0] == "kind=liar-report"
        assert all("=" in line for line in lines)
        keys = {line.split("=", 1)[0] for line in lines}
        assert {"verdict", "fuel", "q", "d_num", "steps", "code"} <= keys
        assert dict(l.split("=", 1) for l in lines
                    if l.startswith(("verdict", "fuel")))["fuel"] == "100000"

    def test_cli_run_is_bit_identical(self):
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            old = sys.stdout
            sys.stdout = buf
            try:
                code = cli_main(["liar", "--fuel", "100000"])
            finally:
                sys.stdout = old
            assert code == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1] == self.GOLDEN.read_text()
