"""The four workloads: seeded inputs, one op at a time, and output checks.

Each workload object builds its inputs from the seed in `__init__` (that is
the set-up the benchmark times), then exposes `n_ops`, `run(i)` for op i
and `check(i, result)`, which returns a failure kind or None and adds
problems for wrong outputs.  `finish()` runs whole-round checks.
`counts` holds the deterministic counts and `digest` the running hash of
every output.  `replay()` (traced runs only) repeats the CLI ops through
the library calls so the CLI's own time can be separated.

Every call into prcalc goes through `tr.call(span_name, fn, ...)`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
from collections import Counter
from typing import List

from prcalc import cli, machine
from prcalc.coding import from_num, num, pred_count_inverse
from prcalc.diagonal import build_antidiagonal, liar_report_lines, run_liar
from prcalc.gen import random_predicate, random_term, random_value
from prcalc.machine import eval_iterative
from prcalc.ordinal import descent_check
from prcalc.partial import (
    CCIDone, FuelExhausted, cci_run, gcd_bound, gcd_cci, gcd_partial,
    gcd_state, make_partial, middle_inverse_partial, mu_search, par_apply,
    total_as_partial,
)
from prcalc.partial import Done as ParDone
from prcalc.surface import parse_term, print_term
from prcalc.term import (
    NAT, NN, TWO, Comp, EqNat, EvalError, Id, NatV, Pair, PairV, ProjL,
    ProjR, Succ, add, eval_structural, typecheck,
)


class TankLog:
    """Counts machine steps, nested runs included, without touching the
    step loop: every run draws from one `FuelTank`, so the steps a run
    took are its fuel minus what is left.  Installed by replacing
    `prcalc.machine.FuelTank` with a subclass that records its instances;
    the cost is one list append per machine run."""

    def __init__(self):
        self.tanks: list = []
        base = machine.FuelTank
        log = self.tanks

        class LoggedTank(base):
            __slots__ = ()

            def __init__(self, fuel):
                super().__init__(fuel)
                log.append((self, fuel))

        machine.FuelTank = LoggedTank

    def mark(self) -> int:
        return len(self.tanks)

    def steps_since(self, mark: int) -> int:
        return sum(fuel - t.remaining for t, fuel in self.tanks[mark:])


class Workload:
    n_ops = 0

    def __init__(self, root: str, seed: int, tr, tanks: TankLog):
        self.root, self.seed, self.tr, self.tanks = root, seed, tr, tanks
        self.counts: Counter = Counter()
        self.problems: List[str] = []
        self._hash = hashlib.sha256()

    def record(self, text: str) -> None:
        self._hash.update(text.encode())
        self._hash.update(b"\0")

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()[:16]

    def problem(self, i: int, text: str) -> str:
        self.problems.append(f"op {i}: {text}")
        return "wrong_output"

    def finish(self) -> None:
        pass

    def replay(self) -> None:
        pass

    def close(self) -> None:
        pass

    def step_count(self) -> int:
        """The workload's deterministic work count behind steps_per_s."""
        raise NotImplementedError


def _capture(tr, name, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = tr.call(name, cli.main, argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# corpus: the CLI sweep, one term per op

# The summary line README.md shows for `prcalc corpus --seed 0`.
README_SUMMARY_SEED0 = (
    "summary: terms=52 args=5200 mismatches=0 descent_violations=0 "
    "fuel_exhausted=0 max_steps=20186 max_complexity=[1,17,22,14] ok=True")

CORPUS_FUEL = 10 ** 6


def _records(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _ord_key(brackets: str):
    # ordinals below omega^omega as [c0,c1,...]: degree first, then the
    # coefficients from the highest power down
    cs = [int(c) for c in brackets.strip("[]").split(",") if c]
    return (len(cs), cs[::-1])


class Corpus(Workload):
    def __init__(self, root, seed, tr, tanks):
        super().__init__(root, seed, tr, tanks)
        src = os.path.join(root, "corpus")
        self.work = os.path.join(root, ".perfbench-work", str(os.getpid()))
        os.makedirs(self.work, exist_ok=True)
        self.entries = []  # (rel, samples, cap, listing path)
        with open(os.path.join(src, "corpus.txt"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            rel, opts = parts[0], dict(p.split("=", 1) for p in parts[1:])
            with open(os.path.join(src, rel), encoding="utf-8") as fh:
                text = fh.read()
            tr.call("surface.parse_term", parse_term, text)
            self.counts["surface.chars_parsed"] += len(text)
            shutil.copy(os.path.join(src, rel), self.work)
            listing = os.path.join(self.work, rel + ".lst")
            with open(listing, "w", encoding="utf-8") as fh:
                fh.write(line + "\n")
            self.entries.append((rel, int(opts.get("samples", 100)),
                                 int(opts.get("cap", 12)), listing))
        self.n_ops = len(self.entries)
        self.rows = {}

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def run(self, i):
        listing = self.entries[i][3]
        return _capture(self.tr, "cli.corpus",
                        ["corpus", "--term", listing, "--seed", str(self.seed),
                         "--format", "records"])

    def check(self, i, result):
        rc, out = result
        rel, samples = self.entries[i][:2]
        self.record(out)
        rec = _records(out)
        self.rows[rel] = rec
        if rc != 0:
            return self.problem(i, f"{rel}: exit code {rc}")
        bad = [k for k in ("mismatches", "descent_violations", "fuel_exhausted")
               if rec.get(k) != "0"]
        if bad or rec.get("term") != rel or rec.get("samples") != str(samples):
            return self.problem(i, f"{rel}: {out.splitlines()[:8]}")
        return None

    def finish(self):
        if len(self.rows) != self.n_ops:
            return
        rows = list(self.rows.values())
        totals = {k: sum(int(r.get(k, 0)) for r in rows)
                  for k in ("samples", "mismatches", "descent_violations",
                            "fuel_exhausted")}
        max_steps = max(int(r.get("max_steps", 0)) for r in rows)
        max_cx = max((r.get("max_complexity", "[]") for r in rows), key=_ord_key)
        ok = not (totals["mismatches"] or totals["descent_violations"]
                  or totals["fuel_exhausted"])
        summary = (f"summary: terms={len(rows)} args={totals['samples']} "
                   f"mismatches={totals['mismatches']} "
                   f"descent_violations={totals['descent_violations']} "
                   f"fuel_exhausted={totals['fuel_exhausted']} "
                   f"max_steps={max_steps} max_complexity={max_cx} ok={ok}")
        self.record(summary)
        if self.seed == 0 and summary != README_SUMMARY_SEED0:
            self.problems.append(f"summary differs from README: {summary}")

    def step_count(self):
        return self.counts["machine.steps"]

    def replay(self):
        """The sweep again through the library calls the CLI makes."""
        tr = self.tr
        outcomes = Counter()
        for i, (rel, samples, cap, _listing) in enumerate(self.entries):
            tr.op = i
            with open(os.path.join(self.work, rel), encoding="utf-8") as fh:
                text = fh.read()
            t = tr.call("surface.parse_term", parse_term, text)
            self.counts["replay.surface.chars_parsed"] += len(text)
            dom, _ = tr.call("term.typecheck", typecheck, t)
            rng = random.Random(f"{self.seed}:{rel}")
            max_steps = 0
            for _ in range(samples):
                arg = tr.call("gen.random_value", random_value, rng, dom, cap)
                ords: list = []
                got = tr.call("machine.eval_iterative", eval_iterative, t, arg,
                              CORPUS_FUEL,
                              on_record=lambda _i, c: ords.append(c.ord()))
                outcomes[type(got).__name__] += 1
                try:
                    want = tr.call("term.eval_structural", eval_structural,
                                   t, arg)
                except EvalError:
                    want = None
                if getattr(got, "value", None) != want:
                    self.problems.append(f"replay {rel}: evaluators disagree")
                if tr.call("ordinal.descent_check", descent_check,
                           ords) is not None:
                    self.problems.append(f"replay {rel}: trace does not descend")
                self.counts["replay.ordinal.entries"] += len(ords)
                max_steps = max(max_steps, len(ords))
            if str(max_steps) != self.rows.get(rel, {}).get("max_steps"):
                self.problems.append(f"replay {rel}: max_steps differs")
        for kind, n in outcomes.items():
            self.counts[f"replay.machine.outcomes.{kind}"] = n


# ---------------------------------------------------------------------------
# reflect: the diagonal probe through the CLI

LIAR_GOLDEN = os.path.join("tests", "data", "liar_fuel_100000.txt")


class Reflect(Workload):
    def __init__(self, root, seed, tr, tanks):
        super().__init__(root, seed, tr, tanks)
        with open(os.path.join(root, LIAR_GOLDEN), encoding="utf-8") as fh:
            self.golden = fh.read().splitlines()

        def build():
            d = build_antidiagonal()
            return (tr.call("coding.num", num, d),
                    tr.call("coding.pred_count_inverse", pred_count_inverse, d))

        d_num, q = tr.call("diagonal.build", build)
        if f"d_num={d_num}" not in self.golden or f"q={q}" not in self.golden:
            self.problems.append("antidiagonal number or index differs from "
                                 + LIAR_GOLDEN)
        rng = random.Random(f"reflect:{seed}")
        # narrow windows keep the total fuel and the largest probe, hence
        # wall time and peak memory, nearly independent of the seed
        self.fuels = [10 ** 5, rng.randint(118_000, 122_000),
                      rng.randint(215_000, 225_000)]
        self.n_ops = len(self.fuels)
        self.outputs = {}

    def expected(self, fuel: int) -> List[str]:
        return [f"fuel={fuel}" if line.startswith("fuel=") else line
                for line in self.golden]

    def run(self, i):
        mark = self.tanks.mark()
        rc, out = _capture(self.tr, "cli.liar",
                           ["liar", "--fuel", str(self.fuels[i])])
        return rc, out, self.tanks.steps_since(mark)

    def check(self, i, result):
        rc, out, spent = result
        fuel = self.fuels[i]
        self.record(out)
        self.outputs[i] = out
        self.counts["diagonal.fuel_spent"] += spent
        if rc != 0 or out.splitlines() != self.expected(fuel):
            return self.problem(i, f"liar report at fuel {fuel} differs "
                                   f"from {LIAR_GOLDEN} (exit {rc})")
        return None

    def step_count(self):
        return self.counts["machine.steps"]

    def replay(self):
        tr = self.tr
        for i, fuel in enumerate(self.fuels):
            tr.op = i
            mark = self.tanks.mark()
            report = tr.call("diagonal.run_liar", run_liar, fuel)
            lines = tr.call("diagonal.liar_report_lines", liar_report_lines,
                            report)
            self.counts["replay.diagonal.fuel_spent"] += \
                self.tanks.steps_since(mark)
            self.counts[f"replay.machine.outcomes."
                        f"{type(report.outcome).__name__}"] += 1
            if "\n".join(lines) + "\n" != self.outputs.get(i):
                self.problems.append(f"replay at fuel {fuel} differs from CLI")


# ---------------------------------------------------------------------------
# search: gcd while-loops, choice-law round trips, minimization

ARG = ProjL(NAT, NAT)
IDX = ProjR(NAT, NAT)
CCI_FUEL = 10 ** 6
MU_FUEL = 64


def _law_maps():
    """The maps of the tier-1 choice-law test, each with its host oracle and
    a domain of arguments.  The domains stop where one round trip starts to
    cost seconds: the preimage scan grows exponentially with the argument."""
    half = make_partial(NAT, NAT, Comp(EqNat(), Pair(ARG, Comp(add, Pair(IDX, IDX)))), IDX)
    posdec = make_partial(NAT, NAT, Comp(EqNat(), Pair(ARG, Comp(Succ(), IDX))), IDX)
    n = NatV
    return [
        ("succ", total_as_partial(Succ()), [n(a) for a in range(10)],
         lambda v: v.n + 1),
        ("double", total_as_partial(Comp(add, Pair(Id(NAT), Id(NAT)))),
         [n(a) for a in range(10)], lambda v: 2 * v.n),
        ("half", half, [n(2 * a) for a in range(4)], lambda v: v.n // 2),
        ("posdec", posdec, [n(a) for a in range(1, 6)], lambda v: v.n - 1),
        ("gcd", gcd_partial(),
         [PairV(n(a), n(b)) for a in range(1, 5) for b in range(1, 5)],
         lambda v: math.gcd(v.left.n, v.right.n)),
    ]


class Search(Workload):
    N_CCI = 10
    PER_SHAPE = 3

    def __init__(self, root, seed, tr, tanks):
        super().__init__(root, seed, tr, tanks)
        rng = random.Random(f"search:{seed}")
        self.inst = tr.call("partial.gcd_cci", gcd_cci)
        ops = []
        # gcd pairs below 10^4, stratified (one draw per tenth of the range
        # on each axis, Latin-hypercube style) so the round's cost varies
        # little with the seed
        k = self.N_CCI
        width = (10 ** 4 - 1) / k
        cols = list(range(k))
        rng.shuffle(cols)
        for row in range(k):
            a = 1 + int((row + rng.random()) * width)
            b = 1 + int((cols[row] + rng.random()) * width)
            ops.append(("cci", a, b, tr.call("partial.gcd_state", gcd_state, a, b)))
        # every argument of every law domain, in seeded order
        for name, f, dom, oracle in tr.call("partial.law_maps", _law_maps):
            g = tr.call("partial.middle_inverse_partial", middle_inverse_partial, f)
            for a in dom:
                ops.append(("law", name, f, g, a, oracle))
        # the same number of predicates of each of random_predicate's three
        # shapes (always true, a <= k, a == 0), so the share of searches
        # that run out of fuel barely depends on the seed
        kinds = Counter()
        while len(kinds) < 3 or min(kinds.values()) < self.PER_SHAPE:
            phi = tr.call("gen.random_predicate", random_predicate, rng, NN)
            shape = print_term(phi.g)
            if kinds[shape] < self.PER_SHAPE:
                kinds[shape] += 1
                ops += [("mu", phi, a) for a in range(20)]
        rng.shuffle(ops)
        self.ops = ops
        self.n_ops = len(ops)

    def run(self, i):
        op, tr = self.ops[i], self.tr
        if op[0] == "cci":
            return tr.call("partial.cci_run", cci_run, self.inst, op[3], CCI_FUEL)
        if op[0] == "law":
            _, _name, f, g, a, _ = op
            first = tr.call("partial.par_apply", par_apply, f, a, 4000)
            if not isinstance(first, ParDone):
                return first, None, None
            back = tr.call("partial.par_apply", par_apply, g, first.value, 200000)
            if not isinstance(back, ParDone):
                return first, back, None
            again = tr.call("partial.par_apply", par_apply, f, back.value, 4000)
            return first, back, again
        return tr.call("partial.mu_search", mu_search, op[1], NatV(op[2]), MU_FUEL)

    def check(self, i, result):
        op = self.ops[i]
        self.record(f"{op[0]} {result!r}")
        if op[0] == "cci":
            _, a, b, _ = op
            if not isinstance(result, CCIDone):
                self.counts["partial.fuel_exhausted"] += isinstance(result, FuelExhausted)
                return self.problem(i, f"cci_run gcd({a},{b}): {result!r}")
            self.counts["partial.cci_run.steps"] += result.index
            if (result.value.left.n != math.gcd(a, b)
                    or result.index != gcd_bound(a, b)):
                return self.problem(i, f"cci_run gcd({a},{b}) gave {result!r}")
            return None
        if op[0] == "law":
            _, name, _f, _g, a, oracle = op
            first, back, again = result
            if again is None:
                self.counts["partial.fuel_exhausted"] += 1
                return self.problem(i, f"law {name} at {a!r}: {result!r}")
            if again != first or first.value.n != oracle(a):
                return self.problem(i, f"law {name} at {a!r}: {result!r}")
            return None
        _, phi, a = op
        found = not isinstance(result, FuelExhausted)
        self.counts["partial.mu_search.calls"] += 1
        self.counts["partial.mu_search.hits"] += found
        self.counts["partial.fuel_exhausted"] += not found
        self.counts["partial.mu_search.evals"] += result + 1 if found else MU_FUEL
        # independent of the search loop: evaluate the predicate directly
        below = result if found else MU_FUEL
        for m in range(below + found):
            got = self.tr.call("term.eval_structural", eval_structural,
                               phi, PairV(NatV(a), NatV(m)))
            if got != NatV(1 if found and m == below else 0):
                return self.problem(i, f"mu_search at {a}: {result!r}, "
                                       f"index {m} gives {got!r}")
        return None

    def step_count(self):
        return self.counts["partial.cci_run.steps"]


# ---------------------------------------------------------------------------
# quote: print, parse, number and decode fresh random terms

TYPINGS = [(NAT, NAT), (NN, NAT), (NAT, NN), (NN, NN), (NAT, TWO)]
CHAIN_LEAVES = ["succ", "(id N)"]


def comp_chain(rng: random.Random, length: int) -> str:
    """Source text of a right-nested chain of `length` compositions."""
    leaves = [rng.choice(CHAIN_LEAVES) for _ in range(length + 1)]
    return ("".join(f"(comp {leaf} " for leaf in leaves[:-1])
            + leaves[-1] + ")" * length)


class Quote(Workload):
    N_DRAWS = 12000
    MAX_DEPTH = 6
    # half of the chains sit below the depth at which the recursive parser
    # gives up (about 495 compositions), half above it, away from the edge
    N_CHAINS = 60
    SHORT_CHAIN = (200, 450)
    LONG_CHAIN = (550, 1000)

    def __init__(self, root, seed, tr, tanks):
        super().__init__(root, seed, tr, tanks)
        rng = random.Random(f"quote:{seed}")
        ops = []
        for i in range(self.N_DRAWS):
            a, b = TYPINGS[i % len(TYPINGS)]
            depth = rng.randint(1, self.MAX_DEPTH)
            ops.append(("draw", tr.call("gen.random_term", random_term,
                                        rng, a, b, depth)))
        for i in range(self.N_CHAINS):
            lo, hi = self.SHORT_CHAIN if i % 2 else self.LONG_CHAIN
            ops.append(("chain", comp_chain(rng, rng.randint(lo, hi))))
        rng.shuffle(ops)
        self.ops = ops
        self.n_ops = len(ops)

    def run(self, i):
        kind, x = self.ops[i]
        tr = self.tr
        try:
            if kind == "draw":
                text = tr.call("surface.print_term", print_term, x)
                t = tr.call("surface.parse_term", parse_term, text)
                n = tr.call("coding.num", num, t)
                back = tr.call("coding.from_num", from_num, n)
                return text, n, back == x, tr.call("surface.print_term",
                                                   print_term, back)
            t = tr.call("surface.parse_term", parse_term, x)
            tr.call("term.typecheck", typecheck, t)
            return x, None, True, tr.call("surface.print_term", print_term, t)
        except RecursionError:
            return RecursionError

    def check(self, i, result):
        kind, x = self.ops[i]
        if result is RecursionError:
            if kind == "chain":
                self.counts["surface.chars_parsed"] += len(x)
            self.record(f"{i} RecursionError")
            # the recursive parser's known limit on deep input
            return "RecursionError" if kind == "chain" else \
                self.problem(i, "RecursionError on a random term")
        text, n, same, reprint = result
        self.counts["surface.chars_parsed"] += len(text)
        self.record(f"{i} {n and hex(n)} {reprint}")
        if n is not None:
            self.counts["coding.bits"] += n.bit_length()
        if not same or reprint != text:
            return self.problem(i, f"{kind} does not round-trip: {text[:80]}")
        return None

    def step_count(self):
        return self.counts["coding.bits"]


WORKLOADS = {"corpus": Corpus, "reflect": Reflect, "search": Search,
             "quote": Quote}
