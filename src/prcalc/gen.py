"""Seeded random generation of well-typed objects, terms, and member values.

Generation is goal-directed: a term is grown against a requested typing, so
everything produced typechecks by construction.  Generated terms are also
total at runtime: the only corestrictions emitted are constant maps onto a
known member, so the predicate check can never fail.
"""

from __future__ import annotations

import random
from typing import List, Optional

from .coding import _leaves
from .term import (
    Abstr, Bang, Comp, Cyl, EvalError, Id, Incl, Iter, NAT, NN, Nat, NatV,
    Obj, Pair, PairV, Prod, ProjL, ProjR, Restrict, Succ, Term, TrueC, UNIT,
    UNITV, Unit, Value, ZeroC, eq0, find_point, leq, value_check,
)


def nat_const(k: int, dom: Obj) -> Term:
    """The constant map dom -> N with value k."""
    t: Term = Comp(ZeroC(NAT), Bang(dom))
    for _ in range(k):
        t = Comp(Succ(), t)
    return t


def value_const(obj: Obj, v: Value, dom: Obj) -> Term:
    """The constant map dom -> obj with value v (a member of obj)."""
    if isinstance(obj, Nat):
        return nat_const(v.n, dom)
    if isinstance(obj, Unit):
        return Bang(dom)
    if isinstance(obj, Prod):
        return Pair(value_const(obj.left, v.left, dom),
                    value_const(obj.right, v.right, dom))
    return Restrict(value_const(obj.carrier, v, dom), obj)


def _nat_path(obj: Obj) -> Optional[Term]:
    # a map obj -> N reading off some natural component, if one exists
    if isinstance(obj, Nat):
        return Id(NAT)
    if isinstance(obj, Prod):
        left = _nat_path(obj.left)
        if left is not None:
            return Comp(left, ProjL(obj.left, obj.right))
        right = _nat_path(obj.right)
        if right is not None:
            return Comp(right, ProjR(obj.left, obj.right))
        return None
    if isinstance(obj, Abstr):
        inner = _nat_path(obj.carrier)
        if inner is not None:
            return Comp(inner, Incl(obj))
        return None
    return None


def random_predicate(rng: random.Random, carrier: Obj) -> Term:
    """A predicate carrier -> Two that holds on the carrier's zero value,
    so the abstraction it cuts out is always inhabited."""
    path = _nat_path(carrier)
    choices: List[Term] = [Comp(TrueC(), Bang(carrier))]
    if path is not None:
        k = rng.randrange(1, 7)
        choices.append(Comp(leq, Pair(path, nat_const(k, carrier))))
        choices.append(Comp(eq0, path))
    return rng.choice(choices)


def random_fund_obj(rng: random.Random, size: int) -> Obj:
    if size <= 1 or rng.random() < 0.55:
        return NAT if rng.random() < 0.85 else UNIT
    cut = rng.randrange(1, size)
    return Prod(random_fund_obj(rng, cut), random_fund_obj(rng, size - cut))


def random_obj(rng: random.Random, size: int, allow_abstr: bool = True) -> Obj:
    if allow_abstr and size >= 2 and rng.random() < 0.25:
        carrier = random_fund_obj(rng, size - 1)
        return Abstr(carrier, random_predicate(rng, carrier))
    return random_fund_obj(rng, size)


def canonical_code(a: Obj, b: Obj) -> Term:
    """Some total map a -> b; exists for every pair of objects."""
    if isinstance(b, Unit):
        return Bang(a)
    if isinstance(b, Nat):
        return nat_const(0, a)
    if isinstance(b, Prod):
        return Pair(canonical_code(a, b.left), canonical_code(a, b.right))
    member = find_point(b, 512)
    if member is None:
        raise EvalError("uninhabited abstraction has no canonical map into it")
    return value_const(b, member, a)


def random_term(rng: random.Random, a: Obj, b: Obj, depth: int) -> Term:
    """A random total term of typing (a, b) with constructor depth <= depth."""
    leaves = _leaves(a, b)
    if depth <= 0:
        return rng.choice(leaves) if leaves else canonical_code(a, b)
    options = ["comp"]
    if leaves:
        options += ["leaf", "leaf"]
    if isinstance(b, Prod):
        options += ["pair", "pair"]
    if isinstance(a, Prod) and isinstance(b, Prod) and a.left == b.left:
        options.append("cyl")
    if isinstance(a, Prod) and a.right == NAT and a.left == b:
        options += ["iter", "iter"]
    if isinstance(b, Abstr):
        options.append("restrict")
    pick = rng.choice(options)
    if pick == "leaf":
        return rng.choice(leaves)
    if pick == "pair":
        return Pair(random_term(rng, a, b.left, depth - 1),
                    random_term(rng, a, b.right, depth - 1))
    if pick == "cyl":
        return Cyl(a.left, random_term(rng, a.right, b.right, depth - 1))
    if pick == "iter":
        return Iter(random_term(rng, b, b, depth - 1))
    if pick == "restrict":
        member = find_point(b, 512)
        if member is None:
            return canonical_code(a, b)
        return Restrict(value_const(b.carrier, member, a), b)
    mid = rng.choice([UNIT, NAT, NN, a, b, random_fund_obj(rng, 3)])
    return Comp(random_term(rng, mid, b, depth - 1),
                random_term(rng, a, mid, depth - 1))


def random_value(rng: random.Random, obj: Obj, cap: int = 12) -> Value:
    """A random member value of obj with naturals bounded by cap."""
    if isinstance(obj, Nat):
        return NatV(rng.randint(0, cap))
    if isinstance(obj, Unit):
        return UNITV
    if isinstance(obj, Prod):
        return PairV(random_value(rng, obj.left, cap),
                     random_value(rng, obj.right, cap))
    for _ in range(50):
        v = random_value(rng, obj.carrier, cap)
        if value_check(obj, v):
            return v
    member = find_point(obj, 512)
    if member is None:
        raise EvalError("could not sample a member of the abstraction")
    return member
