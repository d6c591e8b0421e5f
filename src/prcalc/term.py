"""Objects, terms, values, typing, and the structural evaluator.

The term language is a categorical presentation of primitive recursion:
identities, the terminal map, zero sections, successor, projections, induced
pairs, composition, cylindrification and iteration, plus a two-element truth
object Two carved out of the naturals by a predicate, with inclusion and
runtime-checked corestriction.

Four reflected constructors (DMinus, CDot, EDot, HashC) belong to the coded
layer: they typecheck here but only the iterative machine can run them, and
the structural evaluator refuses them.  ConstVal is internal plumbing for the
machine's configuration encoding and has no surface form.

Objects and terms are hash-consed (Filliatre and Conchon, Type-Safe Modular
Hash-Consing, 2006): every constructor call goes through one intern table,
so equal objects and terms are the same Python object.  A parsed, decoded
or copied tree is the very node it spells, and `copy.deepcopy(t) is t`.
Facts that are functions of a node are computed once and kept on it: the
typing, object well-formedness, and for the other modules the machine
complexity, the code and object ranks, the code number and whether a
ConstVal occurs inside.  The table is never cleared; the only memo tables
left are keyed by numbers (coding's from_num table, machine's reflected
cdot and edot tables) and share one cap, coding.memo_store.  Values stay
structural dataclasses.  The host arithmetic rows of the standard library
live in _HOST; emptying it gives the plain tree walk everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from math import isqrt
from typing import Callable, Dict, Optional, Tuple, Union


class TypeMismatch(Exception):
    """A term fails to typecheck."""


class EvalError(Exception):
    """A runtime failure: bad value shape, failed corestriction check,
    or a reflected constructor outside the machine."""


### hash-consed nodes

# The intern table: (class, *fields) -> node.  Children are nodes already,
# hashed by identity, so a key is shallow.  Never cleared.
_TABLE: Dict[tuple, "_Node"] = {}


class _Node:
    """An interned object or term: equal nodes are one Python object, so
    `==` is `is` and hashing is by identity.  Fields are never assigned
    after construction; the fact slots of a subclass are filled in once,
    when the fact is first asked for."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __new__(cls, *args):
        key = (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            if len(args) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes fields {cls._fields}")
            node = object.__new__(cls)
            for name, val in zip(cls._fields, args):
                setattr(node, name, val)
            _TABLE[key] = node
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __deepcopy__(self, memo):
        # the node itself, without re-interning every level of a deep tree
        return self

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({inner})"


_UNSET = object()


def node_fact(slot: str):
    """Decorator for a fact that is a function of a node alone: computed on
    the first call and kept in the node's `slot`, then read back."""
    def wrap(compute):
        @wraps(compute)
        def fact(node):
            out = getattr(node, slot, _UNSET)
            if out is _UNSET:
                out = compute(node)
                setattr(node, slot, out)
            return out
        return fact
    return wrap


### objects

class _Obj(_Node):
    # _ok: obj_check passed; _rank: coding.obj_rank
    __slots__ = ("_ok", "_rank")


class Unit(_Obj):
    __slots__ = ()

    def __repr__(self) -> str:
        return "Unit"


class Nat(_Obj):
    __slots__ = ()

    def __repr__(self) -> str:
        return "Nat"


class Prod(_Obj):
    __slots__ = _fields = ("left", "right")


class Abstr(_Obj):
    __slots__ = _fields = ("carrier", "chi")  # chi: carrier -> Two


Obj = Union[Unit, Nat, Prod, Abstr]

UNIT = Unit()
NAT = Nat()


### values (plain structural dataclasses, not interned)


@dataclass(frozen=True)
class UnitV:
    def __repr__(self) -> str:
        return "UnitV"


@dataclass(frozen=True)
class NatV:
    n: int


@dataclass(frozen=True)
class PairV:
    left: "Value"
    right: "Value"


Value = Union[UnitV, NatV, PairV]

UNITV = UnitV()


### terms

# Leaves carry the objects their typing needs; combinators carry subterms.


class _Term(_Node):
    # facts of the node, each computed once: _ty typecheck, _cx
    # machine.complexity, _ac machine.apply_cost, _rank coding.rank_code
    # as (dom, cod, rank), _num coding.num, _cv coding.contains_constval
    __slots__ = ("_ty", "_cx", "_ac", "_rank", "_num", "_cv")


class Id(_Term):
    __slots__ = _fields = ("obj",)


class Bang(_Term):
    __slots__ = _fields = ("obj",)


class ZeroC(_Term):
    __slots__ = _fields = ("obj",)


class Succ(_Term):
    __slots__ = ()


class ProjL(_Term):
    __slots__ = _fields = ("left", "right")


class ProjR(_Term):
    __slots__ = _fields = ("left", "right")


class Pair(_Term):
    __slots__ = _fields = ("f", "g")


class Comp(_Term):
    __slots__ = _fields = ("g", "f")  # g applied second, f applied first


class Cyl(_Term):
    __slots__ = _fields = ("c", "g")


class Iter(_Term):
    __slots__ = _fields = ("g",)  # endomap; Iter(g)(a, n) = g^n(a)


class TrueC(_Term):
    __slots__ = ()


class FalseC(_Term):
    __slots__ = ()


class NotC(_Term):
    __slots__ = ()


class EqNat(_Term):
    __slots__ = ()


class Incl(_Term):
    __slots__ = _fields = ("ab",)


class Restrict(_Term):
    __slots__ = _fields = ("f", "ab")


class ConstVal(_Term):
    # machine-internal literal; value must fit obj's carrier shape
    __slots__ = _fields = ("obj", "value")


class DMinus(_Term):
    # reflected bounded-descent search: c complexity code, p step code
    __slots__ = _fields = ("c", "p")


class CDot(_Term):
    __slots__ = ()


class EDot(_Term):
    __slots__ = ()


class HashC(_Term):
    __slots__ = ()


Term = Union[
    Id, Bang, ZeroC, Succ, ProjL, ProjR, Pair, Comp, Cyl, Iter,
    TrueC, FalseC, NotC, EqNat, Incl, Restrict, ConstVal,
    DMinus, CDot, EDot, HashC,
]

REFLECTED = (DMinus, CDot, EDot, HashC)


### shapes

def value_shape(v: Value) -> Obj:
    """The fundamental object a value tree inhabits."""
    if isinstance(v, NatV):
        return NAT
    if isinstance(v, UnitV):
        return UNIT
    return Prod(value_shape(v.left), value_shape(v.right))


def shape_fits(obj: Obj, v: Value) -> bool:
    """Does v fit obj's carrier skeleton (predicates ignored)?"""
    if isinstance(obj, Nat):
        return isinstance(v, NatV) and v.n >= 0
    if isinstance(obj, Unit):
        return isinstance(v, UnitV)
    if isinstance(obj, Prod):
        return (isinstance(v, PairV)
                and shape_fits(obj.left, v.left)
                and shape_fits(obj.right, v.right))
    return shape_fits(obj.carrier, v)


def has_abstr(obj: Obj) -> bool:
    if isinstance(obj, Abstr):
        return True
    if isinstance(obj, Prod):
        return has_abstr(obj.left) or has_abstr(obj.right)
    return False


def zero_value(obj: Obj) -> Value:
    """Componentwise zero of the carrier skeleton."""
    if isinstance(obj, Nat):
        return NatV(0)
    if isinstance(obj, Unit):
        return UNITV
    if isinstance(obj, Prod):
        return PairV(zero_value(obj.left), zero_value(obj.right))
    return zero_value(obj.carrier)


### typing

@node_fact("_ok")
def obj_check(obj: Obj) -> None:
    """Validate well-formedness: every Abstr's chi is a carrier -> Two map."""
    if isinstance(obj, Prod):
        obj_check(obj.left)
        obj_check(obj.right)
    elif isinstance(obj, Abstr):
        obj_check(obj.carrier)
        dom, cod = typecheck(obj.chi)
        if dom != obj.carrier or cod != TWO:
            raise TypeMismatch(
                f"abstraction predicate must map the carrier into Two, got {dom} -> {cod}")
    elif not isinstance(obj, (Unit, Nat)):
        raise TypeMismatch(f"not an object: {obj!r}")


@node_fact("_ty")
def typecheck(t: Term) -> Tuple[Obj, Obj]:
    """Compute (dom, cod) or raise TypeMismatch.  Typings are principal."""
    if isinstance(t, Id):
        obj_check(t.obj)
        return (t.obj, t.obj)
    if isinstance(t, Bang):
        obj_check(t.obj)
        return (t.obj, UNIT)
    if isinstance(t, ZeroC):
        obj_check(t.obj)
        return (UNIT, t.obj)
    if isinstance(t, Succ):
        return (NAT, NAT)
    if isinstance(t, ProjL):
        obj_check(t.left)
        obj_check(t.right)
        return (Prod(t.left, t.right), t.left)
    if isinstance(t, ProjR):
        obj_check(t.left)
        obj_check(t.right)
        return (Prod(t.left, t.right), t.right)
    if isinstance(t, Pair):
        df, cf = typecheck(t.f)
        dg, cg = typecheck(t.g)
        if df != dg:
            raise TypeMismatch(f"pair components disagree on domain: {df} vs {dg}")
        return (df, Prod(cf, cg))
    if isinstance(t, Comp):
        df, cf = typecheck(t.f)
        dg, cg = typecheck(t.g)
        if cf != dg:
            raise TypeMismatch(f"composition mismatch: {cf} then {dg}")
        return (df, cg)
    if isinstance(t, Cyl):
        obj_check(t.c)
        dg, cg = typecheck(t.g)
        return (Prod(t.c, dg), Prod(t.c, cg))
    if isinstance(t, Iter):
        dg, cg = typecheck(t.g)
        if dg != cg:
            raise TypeMismatch(f"iteration needs an endomap, got {dg} -> {cg}")
        return (Prod(dg, NAT), dg)
    if isinstance(t, TrueC) or isinstance(t, FalseC):
        return (UNIT, TWO)
    if isinstance(t, NotC):
        return (TWO, TWO)
    if isinstance(t, EqNat):
        return (Prod(NAT, NAT), TWO)
    if isinstance(t, Incl):
        obj_check(t.ab)
        return (t.ab, t.ab.carrier)
    if isinstance(t, Restrict):
        obj_check(t.ab)
        df, cf = typecheck(t.f)
        if cf != t.ab.carrier:
            raise TypeMismatch(
                f"corestriction needs codomain {t.ab.carrier}, got {cf}")
        return (df, t.ab)
    if isinstance(t, ConstVal):
        obj_check(t.obj)
        if not shape_fits(t.obj, t.value):
            raise TypeMismatch("literal does not fit its object's carrier shape")
        return (UNIT, t.obj)
    if isinstance(t, DMinus):
        dc, cc = typecheck(t.c)
        dp, cp = typecheck(t.p)
        if cc != NAT:
            raise TypeMismatch("descent-search complexity code must land in Nat")
        if dp != cp or dp != dc:
            raise TypeMismatch("descent-search step code must be an endomap on the same object")
        return (dp, Prod(dp, NAT))
    if isinstance(t, CDot):
        return (Prod(NAT, NAT), NAT)
    if isinstance(t, EDot):
        return (Prod(NAT, NAT), Prod(NAT, NAT))
    if isinstance(t, HashC):
        return (NAT, NAT)
    raise TypeMismatch(f"unknown constructor {type(t).__name__}")


### structural evaluation

def eval_structural(t: Term, v: Value) -> Value:
    """Total evaluator by structural recursion.  Reflected constructors are
    refused: their semantics is the step machine's.

    The standard-library nodes in _HOST are computed with host integers,
    however they were built: a parsed or decoded copy is the same node.
    Every other node takes the plain tree walk, which stays the reference
    (tests get it everywhere by emptying _HOST)."""
    k = type(t)
    if k is Comp or k is Iter:
        host = _HOST.get(t)
        if host is not None:
            out = host(v)
            if out is not None:
                return out
    if k is Comp:
        return eval_structural(t.g, eval_structural(t.f, v))
    if k is Pair:
        return PairV(eval_structural(t.f, v), eval_structural(t.g, v))
    if k is Id:
        return v
    if k is ProjL:
        if not isinstance(v, PairV):
            raise EvalError("projection needs a pair")
        return v.left
    if k is ProjR:
        if not isinstance(v, PairV):
            raise EvalError("projection needs a pair")
        return v.right
    if k is Succ:
        if not isinstance(v, NatV):
            raise EvalError("successor needs a natural")
        return NatV(v.n + 1)
    if k is Iter:
        if not (isinstance(v, PairV) and isinstance(v.right, NatV)):
            raise EvalError("iteration needs (start, count)")
        acc = v.left
        for _ in range(v.right.n):
            acc = eval_structural(t.g, acc)
        return acc
    if k is Cyl:
        if not isinstance(v, PairV):
            raise EvalError("cylinder needs a pair")
        return PairV(v.left, eval_structural(t.g, v.right))
    if k is Bang:
        return UNITV
    if k is ZeroC:
        z = zero_value(t.obj)
        if has_abstr(t.obj) and not value_check(t.obj, z):
            raise EvalError("zero is not a member of the abstraction")
        return z
    if k is TrueC:
        return NatV(1)
    if k is FalseC:
        return NatV(0)
    if k is NotC:
        if not isinstance(v, NatV) or v.n not in (0, 1):
            raise EvalError("negation needs a truth value")
        return NatV(1 - v.n)
    if k is EqNat:
        if not (isinstance(v, PairV) and isinstance(v.left, NatV)
                and isinstance(v.right, NatV)):
            raise EvalError("equality needs a pair of naturals")
        return NatV(1 if v.left.n == v.right.n else 0)
    if k is Incl:
        return v
    if k is Restrict:
        out = eval_structural(t.f, v)
        chk = eval_structural(t.ab.chi, out)
        if chk != NatV(1):
            raise EvalError("corestriction check failed")
        return out
    if k is ConstVal:
        return t.value
    if k in REFLECTED:
        raise EvalError(f"{k.__name__} is reflected; run it on the machine")
    raise EvalError(f"unknown constructor {k.__name__}")


def value_check(obj: Obj, v: Value) -> bool:
    """Membership: shape fits and every abstraction predicate holds."""
    if isinstance(obj, Nat):
        return isinstance(v, NatV) and v.n >= 0
    if isinstance(obj, Unit):
        return isinstance(v, UnitV)
    if isinstance(obj, Prod):
        return (isinstance(v, PairV)
                and value_check(obj.left, v.left)
                and value_check(obj.right, v.right))
    return (value_check(obj.carrier, v)
            and eval_structural(obj.chi, v) == NatV(1))


### standard library

NN = Prod(NAT, NAT)

zero_n = Comp(ZeroC(NAT), Bang(NAT))          # n |-> 0
one_n = Comp(Succ(), zero_n)                    # n |-> 1
_zero_nn = Comp(ZeroC(NN), Bang(NAT))         # n |-> (0, 0)
_zero_n_of_nn = Comp(ZeroC(NAT), Bang(NN))    # (m, k) |-> 0

_shift = Pair(ProjR(NAT, NAT), Comp(Succ(), ProjR(NAT, NAT)))

pred = Comp(ProjL(NAT, NAT), Comp(Iter(_shift), Pair(_zero_nn, Id(NAT))))

monus = Iter(pred)      # (m, k) |-> m - k, truncated
add = Iter(Succ())        # (m, k) |-> m + k
swap = Pair(ProjR(NAT, NAT), ProjL(NAT, NAT))

# mul walks (acc, m) |-> (acc + m, m) k times from (0, m)
_mul_step = Pair(add, ProjR(NAT, NAT))
_mul_init = Pair(Pair(_zero_n_of_nn, ProjL(NAT, NAT)), ProjR(NAT, NAT))
mul = Comp(ProjL(NAT, NAT), Comp(Iter(_mul_step), _mul_init))

eq0 = Comp(EqNat(), Pair(Id(NAT), zero_n))
leq = Comp(eq0, monus)
eq = Comp(eq0, Comp(add, Pair(monus, Comp(monus, swap))))

# the truth object: naturals below two
lt2 = Comp(eq0, Comp(monus, Pair(Id(NAT), one_n)))
TWO = Abstr(NAT, lt2)

# tri(n) = 0 + 1 + ... + (n-1)
_tri_step = Pair(add, Comp(Succ(), ProjR(NAT, NAT)))
tri = Comp(ProjL(NAT, NAT), Comp(Iter(_tri_step), Pair(_zero_nn, Id(NAT))))

# cantor_pair(x, y) = tri(x + y + 1) + y
cantor_pair = Comp(add, Pair(Comp(tri, Comp(Succ(), add)), ProjR(NAT, NAT)))


def cond(obj: Obj) -> Term:
    """Definition by cases: Two x (A x A) -> A, componentwise arithmetic."""
    dom = Prod(TWO, Prod(obj, obj))
    sel = Comp(Incl(TWO), ProjL(TWO, Prod(obj, obj)))        # b as a natural
    br = ProjR(TWO, Prod(obj, obj))
    if isinstance(obj, Unit):
        return Comp(ZeroC(UNIT), Bang(dom))
    if isinstance(obj, Nat):
        x = Comp(ProjL(obj, obj), br)
        y = Comp(ProjR(obj, obj), br)
        one_on_dom = Comp(Succ(), Comp(ZeroC(NAT), Bang(dom)))
        nb = Comp(monus, Pair(one_on_dom, sel))
        return Comp(add, Pair(Comp(mul, Pair(sel, x)), Comp(mul, Pair(nb, y))))
    if isinstance(obj, Prod):
        x = Comp(ProjL(obj, obj), br)
        y = Comp(ProjR(obj, obj), br)
        l, r = obj.left, obj.right
        lefts = Pair(ProjL(TWO, Prod(obj, obj)),
                     Pair(Comp(ProjL(l, r), x), Comp(ProjL(l, r), y)))
        rights = Pair(ProjL(TWO, Prod(obj, obj)),
                      Pair(Comp(ProjR(l, r), x), Comp(ProjR(l, r), y)))
        return Pair(Comp(cond(l), lefts), Comp(cond(r), rights))
    carrier = obj.carrier
    x = Comp(Incl(obj), Comp(ProjL(obj, obj), br))
    y = Comp(Incl(obj), Comp(ProjR(obj, obj), br))
    picked = Comp(cond(carrier), Pair(ProjL(TWO, Prod(obj, obj)), Pair(x, y)))
    return Restrict(picked, obj)  # never fails: picks one of two members


two_and = Restrict(
    Comp(mul, Pair(Comp(Incl(TWO), ProjL(TWO, TWO)), Comp(Incl(TWO), ProjR(TWO, TWO)))),
    TWO)
two_or = Comp(NotC(), Comp(two_and, Pair(Comp(NotC(), ProjL(TWO, TWO)),
                                       Comp(NotC(), ProjR(TWO, TWO)))))

# cantor_unpair(n) walks the pairing diagonal n steps from (0, 0):
# (x, y) |-> (x-1, y+1) while x > 0, else start the next diagonal (y+1, 0).
_diag_then = Pair(Comp(Succ(), ProjR(NAT, NAT)), _zero_n_of_nn)
_diag_else = Pair(Comp(pred, ProjL(NAT, NAT)), Comp(Succ(), ProjR(NAT, NAT)))
_diag_step = Comp(cond(NN), Pair(Comp(eq0, ProjL(NAT, NAT)), Pair(_diag_then, _diag_else)))
cantor_unpair = Comp(Iter(_diag_step), Pair(_zero_nn, Id(NAT)))


def _zero_on(dom: Obj) -> Term:
    return Comp(ZeroC(NAT), Bang(dom))


def _eqn(x: Term, y: Term) -> Term:
    return Comp(EqNat(), Pair(x, y))


def _ite(obj: Obj, flag: Term, when_true: Term, when_false: Term) -> Term:
    """Branch on a Two-valued flag by iterating a swap zero or one times.

    All three pieces share a domain D; the result D -> obj picks when_true
    where the flag is 1.  Both branches are evaluated either way (the
    calculus is total), so they must be cheap and safe on all of D.
    """
    sw = Pair(ProjR(obj, obj), ProjL(obj, obj))
    seed = Pair(when_false, when_true)
    picked = Comp(Iter(sw), Pair(seed, Comp(Incl(TWO), flag)))
    return Comp(ProjL(obj, obj), picked)


# mod_cycle((r, k), a) moves r a places round the cycle 0..k-1: the step
# (r, k) |-> (r+1 == k ? 0 : r+1, k) costs a constant, and from r >= k
# (k = 0 included) the wrap test never fires, so r just counts up.
_r, _k = ProjL(NAT, NAT), ProjR(NAT, NAT)
_wrap = _eqn(Comp(Succ(), _r), _k)
mod_cycle = Iter(Pair(_ite(NAT, _wrap, _zero_on(NN), Comp(Succ(), _r)), _k))


### host arithmetic

def nat_pair(x: int, y: int) -> int:
    """The Cantor pairing N x N -> N on host integers: cantor_pair's value."""
    s = x + y
    return s * (s + 1) // 2 + y


def nat_unpair(n: int) -> Tuple[int, int]:
    """The inverse of nat_pair: cantor_unpair's value."""
    w = (isqrt(8 * n + 1) - 1) // 2
    y = n - w * (w + 1) // 2
    return w - y, y


# Host arithmetic for eval_structural, keyed by node.  An entry answers only on
# its natural, pair of naturals, or (for mod_cycle) ((r, k), a) with every
# component >= 0 and returns None otherwise, so ill-shaped or negative inputs
# take the tree walk and keep its results and EvalError texts.

def _nat(v: Value) -> int:
    """v's natural, or -1 when v is not a NatV with a natural in it."""
    return v.n if type(v) is NatV and v.n >= 0 else -1


def _on_n(f: Callable[[int], Value]) -> Callable[[Value], Optional[Value]]:
    def host(v: Value) -> Optional[Value]:
        n = _nat(v)
        return f(n) if n >= 0 else None
    return host


def _on_nn(f: Callable[[int, int], Value]) -> Callable[[Value], Optional[Value]]:
    def host(v: Value) -> Optional[Value]:
        if type(v) is PairV:
            x, y = _nat(v.left), _nat(v.right)
            if x >= 0 and y >= 0:
                return f(x, y)
        return None
    return host


def _mod_cycle_host(v: Value) -> Optional[Value]:
    # ((r, k), a) |-> ((r + a) mod k, k) when r < k, else (r + a, k)
    if type(v) is PairV and type(v.left) is PairV:
        r, k, a = _nat(v.left.left), _nat(v.left.right), _nat(v.right)
        if r >= 0 and k >= 0 and a >= 0:
            return PairV(NatV((r + a) % k if r < k else r + a), NatV(k))
    return None


_HOST: Dict[Term, Callable[[Value], Optional[Value]]] = {
    pred: _on_n(lambda n: NatV(max(n - 1, 0))),
    eq0: _on_n(lambda n: NatV(int(n == 0))),
    lt2: _on_n(lambda n: NatV(int(n < 2))),
    tri: _on_n(lambda n: NatV(n * (n - 1) // 2)),
    cantor_unpair: _on_n(lambda n: PairV(*map(NatV, nat_unpair(n)))),
    add: _on_nn(lambda m, k: NatV(m + k)),
    monus: _on_nn(lambda m, k: NatV(max(m - k, 0))),
    mul: _on_nn(lambda m, k: NatV(m * k)),
    leq: _on_nn(lambda m, k: NatV(int(m <= k))),
    eq: _on_nn(lambda m, k: NatV(int(m == k))),
    cantor_pair: _on_nn(lambda x, y: NatV(nat_pair(x, y))),
    mod_cycle: _mod_cycle_host,
}


### names

STDLIB: Dict[str, Term] = {
    "pred": pred,
    "add": add,
    "mul": mul,
    "monus": monus,
    "leq": leq,
    "eq": eq,
    "cantor_pair": cantor_pair,
    "cantor_unpair": cantor_unpair,
}


def find_point(obj: Obj, fuel: int = 1000) -> Optional[Value]:
    """Search the first `fuel` values of the carrier's canonical count for a
    member of obj.  Without abstractions that is index 0, the zero value."""
    from .coding import cont_raw
    if not has_abstr(obj):
        return zero_value(obj)
    for n in range(fuel):
        v = cont_raw(obj, n)
        if value_check(obj, v):
            return v
    return None


def eq_sample(f: Term, g: Term, bound: int) -> Optional[Value]:
    """Compare two maps on the first `bound` arguments of the domain's
    canonical count.  None means they agree; otherwise the first witness."""
    from .coding import cont
    df, cf = typecheck(f)
    dg, cg = typecheck(g)
    if (df, cf) != (dg, cg):
        raise TypeMismatch("can only sample maps of identical typing")
    a0 = find_point(df)
    if a0 is None:
        raise EvalError("sampling needs an inhabited domain")
    for n in range(bound):
        a = cont(df, a0, n)
        if eval_structural(f, a) != eval_structural(g, a):
            return a
    return None
