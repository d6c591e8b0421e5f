"""Regenerate the shipped term corpus.

Writes corpus/*.pr, corpus/corpus.txt and corpus/gcd.cci, then verifies
every line: machine evaluation must match structural evaluation on the
declared sample budget with a wide fuel margin, and every trace must
descend.  Generated terms that fail the pre-flight are re-drawn from the
next seed, so the committed corpus is safe by construction.

Run from the repository root: python3 tools/make_corpus.py
"""

from __future__ import annotations

import os
import random
import sys
from typing import List, Tuple

from prcalc.gen import nat_const, random_term, random_value
from prcalc.machine import Done, eval_iterative
from prcalc.ordinal import descent_check
from prcalc.partial import (
    UnsupportedConstructor, gcd_cci, structural_middle_inverse,
)
from prcalc.surface import print_obj, print_term
from prcalc.term import (
    Abstr, Bang, Comp, Cyl, EqNat, EvalError, Id, Incl, Iter, NAT, NN, NotC,
    Pair, Prod, ProjL, ProjR, Restrict, Succ, TWO, Term, TrueC, UNIT,
    add, cond, eq, eq0, eq_sample, eval_structural, has_abstr, leq, lt2,
    monus, mul, pred, swap, tri, typecheck, zero_n, one_n,
)

OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "corpus")
FUEL = 10 ** 6
STEP_MARGIN = 200_000

THREE = Abstr(NAT, Comp(leq, Pair(Id(NAT), nat_const(2, NAT))))

# name, term, sampling cap
NAMED: List[Tuple[str, Term, int]] = [
    ("succ", Succ(), 12),
    ("pred", pred, 12),
    ("add", add, 12),
    ("monus", monus, 12),
    ("mul", mul, 12),
    ("swap", swap, 12),
    ("zero_fn", zero_n, 12),
    ("one_fn", one_n, 12),
    ("id_nat", Id(NAT), 12),
    ("bang_nat", Bang(NAT), 12),
    ("projl", ProjL(NAT, NAT), 12),
    ("projr", ProjR(NAT, NAT), 12),
    ("cyl_succ", Cyl(NAT, Succ()), 12),
    ("cyl_pred", Cyl(NAT, pred), 12),
    ("eq0", eq0, 12),
    ("leq", leq, 12),
    ("eq", eq, 12),
    ("lt2", lt2, 12),
    ("eqnat", EqNat(), 12),
    ("pair_track", Pair(Id(NAT), tri), 10),
    # abstraction objects in the typing
    ("not", NotC(), 12),
    ("incl_two", Incl(TWO), 12),
    ("id_two", Id(TWO), 12),
    ("true_const", Comp(TrueC(), Bang(NAT)), 12),
    ("cond_nat", cond(NAT), 9),
    ("cond_two", cond(TWO), 9),
    ("restrict3", Restrict(Comp(monus, Pair(nat_const(2, NAT), Id(NAT))),
                           THREE), 12),
    # iterations nested at least three deep; every loop body is bounded by
    # its input so the canonical count stays affordable
    ("shrink3", Iter(Pair(monus, ProjR(NAT, NAT))), 12),
    ("iter_swapdiff", Iter(Pair(Comp(monus, swap), ProjL(NAT, NAT))), 10),
    ("iter_flipdiff", Iter(Pair(Comp(monus, swap), ProjR(NAT, NAT))), 12),
    ("shrink_decay", Iter(Pair(monus, Comp(pred, ProjR(NAT, NAT)))), 12),
    ("iter_absorb", Iter(Pair(Comp(monus, Pair(ProjL(NAT, NAT),
                                               Comp(monus, swap))),
                              ProjR(NAT, NAT))), 12),
    ("iter_fixed", Iter(Pair(Comp(monus, Pair(add, ProjR(NAT, NAT))),
                             ProjR(NAT, NAT))), 12),
    ("tri_loop", Iter(Pair(add, Comp(Succ(), ProjR(NAT, NAT)))), 8),
]

GEN_TYPINGS = [
    (NAT, NAT), (NN, NAT), (NAT, NN), (NN, NN), (NAT, TWO), (NN, TWO),
    (Prod(NN, NAT), NAT), (UNIT, NAT), (NAT, Prod(NAT, NN)),
]
GEN_COUNT = 18
GEN_CAP = 8


def iter_depth(t: Term) -> int:
    """Deepest chain of Iter constructors along any path."""
    kids = [getattr(t, f) for f in t._fields]
    sub = max((iter_depth(k) for k in kids if isinstance(k, Term)), default=0)
    return sub + (1 if isinstance(t, Iter) else 0)


def has_abstr_typing(t: Term) -> bool:
    def deep(obj) -> bool:
        if isinstance(obj, Abstr):
            return True
        kids = [getattr(obj, f) for f in obj._fields]
        return any(deep(k) for k in kids if not isinstance(k, (str, Term)))
    dom, cod = typecheck(t)
    return deep(dom) or deep(cod)


def verify(name: str, t: Term, cap: int, samples: int, seed: int) -> int:
    """Oracle comparison plus descent on every trace; returns max steps."""
    dom, cod = typecheck(t)
    if not (has_abstr(dom) or has_abstr(cod)):
        # fundamental members must admit a structural choice witness and
        # satisfy the middle inverse law on the canonical count
        w = structural_middle_inverse(t)
        bad = eq_sample(Comp(t, Comp(w, t)), t, 200)
        assert bad is None, f"{name}: middle inverse law fails at {bad}"
    rng = random.Random(f"{seed}:{name}.pr")
    worst = 0
    for _ in range(samples):
        arg = random_value(rng, dom, cap)
        ords = []
        got = eval_iterative(t, arg, FUEL,
                             on_record=lambda i, c: ords.append(c.ord()))
        try:
            expected = eval_structural(t, arg)
        except EvalError:
            expected = None
        if isinstance(got, Done):
            assert expected is not None and got.value == expected, \
                f"{name}: mismatch at {arg}"
        else:
            assert expected is None and type(got).__name__ == "EvalFailure", \
                f"{name}: {got} at {arg}"
        assert descent_check(ords) is None, f"{name}: descent broke at {arg}"
        worst = max(worst, len(ords))
    assert worst < STEP_MARGIN, f"{name}: {worst} steps leaves thin margin"
    return worst


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    entries: List[Tuple[str, Term, int]] = list(NAMED)

    drawn = 0
    seed = 0
    while drawn < GEN_COUNT:
        a, b = GEN_TYPINGS[drawn % len(GEN_TYPINGS)]
        rng = random.Random(f"draw:{seed}")
        t = random_term(rng, a, b, depth=4)
        seed += 1
        try:
            verify(f"gen{drawn:02d}", t, GEN_CAP, 40, seed=1)
        except (AssertionError, UnsupportedConstructor, EvalError):
            continue
        entries.append((f"gen{drawn:02d}", t, GEN_CAP))
        drawn += 1

    lines = []
    worst_steps = 0
    for name, t, cap in entries:
        with open(os.path.join(OUT, f"{name}.pr"), "w",
                  encoding="utf-8") as fh:
            fh.write(print_term(t) + "\n")
        for check_seed in (0, 1, 7):
            steps = verify(name, t, cap, 34, seed=check_seed)
            worst_steps = max(worst_steps, steps)
        lines.append(f"{name}.pr samples=100 cap={cap}")

    with open(os.path.join(OUT, "corpus.txt"), "w", encoding="utf-8") as fh:
        fh.write("# term file, sample count, value size cap per line\n")
        fh.write("\n".join(lines) + "\n")

    inst = gcd_cci()
    with open(os.path.join(OUT, "gcd.cci"), "w", encoding="utf-8") as fh:
        fh.write(f"(cci {print_obj(inst.space)} {print_term(inst.c)} "
                 f"{print_term(inst.p)})\n")

    deep = sum(iter_depth(t) >= 3 for _, t, _ in entries)
    abstr = sum(has_abstr_typing(t) for _, t, _ in entries)
    print(f"{len(entries)} terms, {deep} with iter depth >= 3, "
          f"{abstr} with abstraction typings, worst steps {worst_steps}")
    assert len(entries) >= 50 and deep >= 5 and abstr >= 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
