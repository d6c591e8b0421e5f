"""Iterative evaluator: a frame machine with an ordinal termination measure.

A configuration is a stack of frames plus the current value; a code on
the stack is its own application frame, and four bookkeeping frames hold
a pair, iteration or restriction in progress.  Each frame carries an
ordinal cost and every transition strictly lowers the natural sum of the
frame costs, so the measure witnesses termination; the evaluator checks
the descent at every step and reports a violation as an outcome rather
than trusting the design.  Complexity zero holds exactly on the empty
stack, where stepping is a no-op.

Configurations encode as (code, value) pairs: the stack folds into a
composition chain whose captured values travel as machine-internal
constants.  That encoding is what the reflected operators act on: edot
decodes a configuration number, fires one transition, and re-encodes;
cdot reports the decoded configuration's complexity as an ordinal code;
dminus searches for the step count at which the reflected complexity hits
zero, running this same machine on a shared fuel tank.

Fuel counts machine steps, including every step taken inside reflected
runs, so one budget bounds the total work of an evaluation.  Nested runs
are jobs on one explicit stack (`_drive`), not host recursion, so the
reflection depth is bounded by fuel alone.  A transition waiting on a
nested run is suspended as a continuation record (`DMinusK`, `EDotK`),
plain data, so a suspended job can be compared field by field.  A
self-applying code climbs a reflective tower whose levels repeat; when a
newly suspended job equals one of its ancestors (`_repeats`), the job
would never return, and the run stops with the outcome it would reach
when its fuel ran out, the tank drained.  `eval_iterative` is the one
way into that loop, and `_measure` the one computation of a
configuration's measure from its stored frame costs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable, Dict, List, Optional, Tuple, Union

from .coding import (
    IllTyped, decode_value, encode_ord, encode_value, from_num, hashc_num,
    memo_store, num, sd_pair, sd_unpair,
)
from .ordinal import (
    LESS, Ord, ord_cmp, ord_brackets, ord_nat_scale, ord_nat_sum,
    ord_omega_shift,
)
from .surface import print_term, print_value
from .term import (
    Abstr, Bang, CDot, Comp, ConstVal, Cyl, DMinus, EDot, EqNat, EvalError,
    FalseC, HashC, Id, Incl, Iter, NAT, NN, Nat, NatV, NotC, Obj, Pair,
    PairV, Prod, ProjL, ProjR, Restrict, Succ, Term, TrueC, TypeMismatch,
    UNITV, Unit, UnitV, Value, ZeroC, eval_structural, node_fact, shape_fits,
    typecheck,
)

DEFAULT_FUEL = 10 ** 6

_ONE: Ord = (1,)


# ---------------------------------------------------------------------------
# code complexity

# reflected-step caches, keyed by configuration numbers and capped by
# coding.memo_store: deep towers of self-interpretation revisit the same
# coded configurations at every level
_ccost_memo: Dict[int, int] = {}
_estep_memo: Dict[Tuple[int, int], Tuple[int, int]] = {}


@node_fact("_cx")
def complexity(c: Term) -> Ord:
    """The ordinal measure of a code.

    Administrative constants are chosen so that every machine transition
    descends strictly: unfolding a composition splits its cost into the two
    application frames with one unit to spare, a pair costs its components
    plus the bookkeeping frames plus one, and an iteration sits one omega
    power above its body, which dominates the finite-scale pending frame it
    unfolds into.  Reflected operators cost a flat unit; their real work is
    accounted as nested fuel, not as measure.
    """
    if isinstance(c, Comp):
        return ord_nat_sum(ord_nat_sum(complexity(c.f), complexity(c.g)), (2,))
    if isinstance(c, Pair):
        return ord_nat_sum(ord_nat_sum(complexity(c.f), complexity(c.g)), (4,))
    if isinstance(c, Cyl):
        return ord_nat_sum(complexity(c.g), (2,))
    if isinstance(c, Restrict):
        return ord_nat_sum(
            ord_nat_sum(complexity(c.f), complexity(c.ab.chi)), (2,))
    if isinstance(c, Iter):
        return ord_omega_shift(ord_nat_sum(complexity(c.g), _ONE))
    if isinstance(c, (DMinus, CDot, EDot, HashC)):
        return _ONE
    return ()


@node_fact("_ac")
def apply_cost(c: Term) -> Ord:
    """The cost of an application frame of c, kept on the node: the
    complexity plus the unit every frame costs (see `frame_cost`)."""
    return ord_nat_sum(complexity(c), _ONE)


# ---------------------------------------------------------------------------
# frames

@dataclass(frozen=True)
class PairLeft:
    # waiting for the left component; fires with the left result in current
    g: Term
    saved: Value
    left_cod: Obj


@dataclass(frozen=True)
class PairRight:
    # waiting for the right component; fires with the right result in current
    left: Value
    left_obj: Obj
    right_cod: Obj


@dataclass(frozen=True)
class IterPending:
    g: Term
    remaining: int


@dataclass(frozen=True)
class RestrictCheck:
    ab: Abstr


# any other frame is a code, which is its own application frame
Frame = Union[Term, PairLeft, PairRight, IterPending, RestrictCheck]


def frame_cost(fr: Frame) -> Ord:
    """Every frame costs at least one, so zero total means empty stack.

    Descent margins per transition: applying a basic constant pops its
    whole cost (>= 1); a composition frame of cost f+g+3 becomes two apply
    frames of cost f+g+2; a pair frame of cost f+g+5 becomes apply f plus a
    PairLeft of cost f+g+4, the PairLeft then becomes apply g plus a unit
    PairRight with one to spare; an iteration frame omega-dominates the
    k-scaled pending frame it unfolds into; a pending frame sheds exactly
    one unit per unfolding; the reflected operators pop a flat cost of two.
    Each margin compares only the popped frame with the frames pushed in
    its place, which is all the step loop checks (see `_drive`).  A code
    is its own application frame, of cost `apply_cost`, kept on the node.
    """
    t = type(fr)
    if t is PairLeft:
        return ord_nat_sum(complexity(fr.g), (3,))
    if t is PairRight:
        return _ONE
    if t is IterPending:
        per = ord_nat_sum(complexity(fr.g), (2,))
        return ord_nat_sum(ord_nat_scale(fr.remaining, per), _ONE)
    if t is RestrictCheck:
        return ord_nat_sum(complexity(fr.ab.chi), _ONE)
    return apply_cost(fr)


def _acc_add(acc: List[int], o: Ord) -> None:
    if len(acc) < len(o):
        acc.extend([0] * (len(o) - len(acc)))
    for i, c in enumerate(o):
        acc[i] += c


def _acc_sub(acc: List[int], o: Ord) -> None:
    for i, c in enumerate(o):
        acc[i] -= c


def _trim(acc) -> Ord:
    i = len(acc)
    while i and acc[i - 1] == 0:
        i -= 1
    return tuple(acc[:i])


def _measure(costs) -> Ord:
    """The measure of a stack with these frame costs: their natural sum,
    a coefficientwise sum, here one column sum per power of omega."""
    total = tuple(map(sum, zip_longest(*costs, fillvalue=0)))
    return _trim(total) if total and not total[-1] else total


class Config:
    """Machine state: frame stack (top at the end), current value, and the
    object the value inhabits.

    `costs[i]` is `frame_cost(frames[i])`, paid once when the frame is
    pushed; an application frame reads its cost from the code node
    (`apply_cost`).  `ord()` sums the stored costs on demand; nothing
    keeps a running total, since the step loop's descent check is local
    (see `_drive`).
    """

    __slots__ = ("frames", "costs", "current", "value_obj")

    def __init__(self, frames, current: Value, value_obj: Obj):
        self.frames: List[Frame] = list(frames)
        self.costs: List[Ord] = [frame_cost(fr) for fr in self.frames]
        self.current = current
        self.value_obj = value_obj

    def ord(self) -> Ord:
        return _measure(self.costs)

    def halted(self) -> bool:
        return not self.frames

    def _push(self, fr: Frame, cost: Optional[Ord] = None) -> None:
        if cost is None:
            cost = frame_cost(fr)
        self.frames.append(fr)
        self.costs.append(cost)

    def _pop(self) -> Frame:
        self.costs.pop()
        return self.frames.pop()

    def __repr__(self):
        return (f"Config(frames={len(self.frames)}, "
                f"complexity={ord_brackets(self.ord())})")


# ---------------------------------------------------------------------------
# fuel and run stops

class _OutOfFuel(Exception):
    def __init__(self, nested: bool):
        self.nested = nested


class _Stop(Exception):
    """Ends a run with its outcome: a violation, or fuel exhaustion once
    the root run has its tail (see `_drive`)."""

    def __init__(self, outcome: Outcome):
        self.outcome = outcome


class FuelTank:
    """Shared step budget; reflected runs draw from the caller's tank."""

    __slots__ = ("remaining", "depth")

    def __init__(self, fuel: int):
        self.remaining = fuel
        self.depth = 0

    def spend(self) -> None:
        if self.remaining <= 0:
            raise _OutOfFuel(self.depth > 0)
        self.remaining -= 1


# ---------------------------------------------------------------------------
# configuration coding (the pairing and value codecs live in coding)


def _frame_code(fr: Frame) -> Term:
    """The code a frame contributes to the folded chain: a code is its own.
    Captured values ride along as machine-internal constants fed through
    a bang."""
    t = type(fr)
    if t is PairLeft:
        a_obj, _ = typecheck(fr.g)
        return Pair(Id(fr.left_cod),
                    Comp(fr.g, Comp(ConstVal(a_obj, fr.saved),
                                    Bang(fr.left_cod))))
    if t is PairRight:
        return Pair(Comp(ConstVal(fr.left_obj, fr.left), Bang(fr.right_cod)),
                    Id(fr.right_cod))
    if t is IterPending:
        a_obj, _ = typecheck(fr.g)
        return Comp(Iter(fr.g),
                    Pair(Id(a_obj),
                         Comp(ConstVal(NAT, NatV(fr.remaining)),
                              Bang(a_obj))))
    if t is RestrictCheck:
        return Restrict(Id(fr.ab.carrier), fr.ab)
    return fr


def encode_config(cfg: Config) -> Tuple[Term, Value]:
    """Fold the stack into one composition chain ending at the identity of
    the current value's object; structural evaluation of the chain on the
    current value yields the machine's result."""
    chain: Term = Id(cfg.value_obj)
    for fr in reversed(cfg.frames):
        chain = Comp(_frame_code(fr), chain)
    return chain, cfg.current


def _match_frame(code: Term) -> Frame:
    # PairLeft image: (id L) paired with g after a captured argument
    if (isinstance(code, Pair) and isinstance(code.f, Id)
            and isinstance(code.g, Comp) and isinstance(code.g.f, Comp)
            and isinstance(code.g.f.g, ConstVal)
            and isinstance(code.g.f.f, Bang)
            and code.g.f.f.obj == code.f.obj):
        g, cv = code.g.g, code.g.f.g
        if typecheck(g)[0] == cv.obj:
            return PairLeft(g, cv.value, code.f.obj)
    # PairRight image: captured left result paired with (id R)
    if (isinstance(code, Pair) and isinstance(code.g, Id)
            and isinstance(code.f, Comp) and isinstance(code.f.g, ConstVal)
            and isinstance(code.f.f, Bang)
            and code.f.f.obj == code.g.obj):
        cv = code.f.g
        return PairRight(cv.value, cv.obj, code.g.obj)
    # IterPending image: iteration precomposed with a captured counter
    if (isinstance(code, Comp) and isinstance(code.g, Iter)
            and isinstance(code.f, Pair) and isinstance(code.f.f, Id)
            and isinstance(code.f.g, Comp)
            and isinstance(code.f.g.g, ConstVal)
            and isinstance(code.f.g.g.obj, Nat)
            and isinstance(code.f.g.g.value, NatV)
            and isinstance(code.f.g.f, Bang)
            and code.f.g.f.obj == code.f.f.obj):
        g = code.g.g
        if typecheck(g)[0] == code.f.f.obj:
            return IterPending(g, code.f.g.g.value.n)
    # RestrictCheck image: a restriction of the identity
    if (isinstance(code, Restrict) and isinstance(code.f, Id)
            and code.f.obj == code.ab.carrier):
        return RestrictCheck(code.ab)
    return code


def _unfold(code: Term) -> Tuple[List[Frame], Obj]:
    """Invert the fold: peel the composition spine down to an identity.
    A code that does not end in one is a single frame, itself."""
    spine = []
    t = code
    while isinstance(t, Comp):
        spine.append(t.g)
        t = t.f
    if isinstance(t, Id):
        return [_match_frame(g) for g in spine], t.obj
    dom, _ = typecheck(code)
    return [code], dom


def decode_config(code: Term, value: Value) -> Config:
    frames, t0 = _unfold(code)
    if not shape_fits(t0, value):
        raise EvalError("value does not fit the configuration's object")
    return Config(frames, value, t0)


def _config_to_nums(cfg: Config) -> Tuple[int, int]:
    code, value = encode_config(cfg)
    return num(code), encode_value(cfg.value_obj, value)


def _config_from_nums(nu: int, nv: int) -> Config:
    frames, t0 = _unfold(from_num(nu))
    return Config(frames, decode_value(t0, nv), t0)


# ---------------------------------------------------------------------------
# transitions

# dispatch is on exact type: no term or frame class has subclasses
_BASIC_T = frozenset((Id, Bang, ZeroC, Succ, ProjL, ProjR, TrueC, FalseC,
                      NotC, EqNat, Incl, ConstVal))


def _fire(cfg: Config, tank: FuelTank):
    """One transition; no-op on the empty stack (stationarity).  Returns
    None, or (record, child) when the transition needs a nested run."""
    if not cfg.frames:
        return
    top = cfg.frames[-1]
    t = type(top)
    if t is PairLeft:
        cfg._pop()
        g_dom, g_cod = typecheck(top.g)
        cfg._push(PairRight(cfg.current, top.left_cod, g_cod))
        cfg._push(top.g, apply_cost(top.g))
        cfg.current = top.saved
        cfg.value_obj = g_dom
    elif t is PairRight:
        cfg._pop()
        cfg.current = PairV(top.left, cfg.current)
        cfg.value_obj = Prod(top.left_obj, top.right_cod)
    elif t is IterPending:
        cfg._pop()
        if top.remaining > 0:
            cfg._push(IterPending(top.g, top.remaining - 1))
            cfg._push(top.g, apply_cost(top.g))
    elif t is RestrictCheck:
        ab = top.ab
        if eval_structural(ab.chi, cfg.current) != NatV(1):
            raise EvalError("restriction predicate rejected the value")
        cfg._pop()
        cfg.value_obj = ab
    else:
        return _apply(cfg, top, tank)


def _apply(cfg: Config, u: Term, tank: FuelTank):
    t = type(u)
    if t in _BASIC_T:
        cfg._pop()
        cfg.current = eval_structural(u, cfg.current)
        cfg.value_obj = typecheck(u)[1]
    elif t is Comp:
        cfg._pop()
        cfg._push(u.g, apply_cost(u.g))
        cfg._push(u.f, apply_cost(u.f))
    elif t is Pair:
        cfg._pop()
        _, f_cod = typecheck(u.f)
        cfg._push(PairLeft(u.g, cfg.current, f_cod))
        cfg._push(u.f, apply_cost(u.f))
    elif t is Cyl:
        cur = cfg.current
        if not isinstance(cur, PairV):
            raise EvalError("cylinder expects a pair")
        cfg._pop()
        g_dom, g_cod = typecheck(u.g)
        cfg._push(PairRight(cur.left, u.c, g_cod))
        cfg._push(u.g, apply_cost(u.g))
        cfg.current = cur.right
        cfg.value_obj = g_dom
    elif t is Iter:
        cur = cfg.current
        if not (isinstance(cur, PairV) and isinstance(cur.right, NatV)):
            raise EvalError("iteration expects (start, count)")
        cfg._pop()
        cfg._push(IterPending(u.g, cur.right.n))
        cfg.current = cur.left
        cfg.value_obj = typecheck(u.g)[0]
    elif t is Restrict:
        cfg._pop()
        cfg._push(RestrictCheck(u.ab))
        cfg._push(u.f, apply_cost(u.f))
    elif t is DMinus:
        cfg._pop()
        return _dminus_next(DMinusK(u, cfg.current, cfg.current, 0, True))
    elif t is CDot:
        nu, _ = _reflected_input(cfg.current)
        cfg._pop()
        cost = _ccost_memo.get(nu)
        if cost is None:
            # the measure factors through the code: the value number is unused
            frames, _ = _unfold(from_num(nu))
            cost = encode_ord(_measure([frame_cost(fr) for fr in frames]))
            memo_store(_ccost_memo, nu, cost)
        cfg.current = NatV(cost)
        cfg.value_obj = NAT
    elif t is EDot:
        nu, nv = _reflected_input(cfg.current)
        cfg._pop()
        hit = _estep_memo.get((nu, nv))
        if hit is None:
            sub = _config_from_nums(nu, nv)
            cfg.value_obj = NN
            # a halted configuration is a fixed point of the reflected step
            return (EDotK(nu, nv, tank.remaining), sub) if sub.frames else None
        # replay the recorded step: same single spend at nested depth,
        # so exhaustion surfaces exactly as it would on a fresh compute.
        # The step's descent was checked when it was first computed and
        # is not checked again.  This hit is the one place where a run
        # with caches and one without can differ, and only under a
        # mispriced frame_cost, which fails that check: with the real
        # measure both give the same bytes (the tests' caches_off runs).
        tank.depth += 1
        try:
            tank.spend()
        finally:
            tank.depth -= 1
        cfg.current = PairV(NatV(hit[0]), NatV(hit[1]))
        cfg.value_obj = NN
    elif t is HashC:
        cur = cfg.current
        if not isinstance(cur, NatV):
            raise EvalError("hash expects a number")
        cfg._pop()
        cfg.current = NatV(hashc_num(cur.n))
        cfg.value_obj = NAT
    else:
        raise EvalError(f"unknown code constructor {type(u).__name__}")


def _reflected_input(v: Value) -> Tuple[int, int]:
    if (isinstance(v, PairV) and isinstance(v.left, NatV)
            and isinstance(v.right, NatV)):
        return v.left.n, v.right.n
    raise EvalError("reflected operator expects a pair of numbers")


# A transition that needs a nested run suspends its job with a
# continuation record and the config of the child job that runs next: a
# DMinusK child runs a code on a value to the empty stack, an EDotK child
# takes one step of a decoded config.  `_resume` takes the finished child
# and ends the transition or names the next child.


@dataclass(frozen=True)
class DMinusK:
    # the descent search u at argument a: state s after count steps of
    # u.p, with the measure u.c running on s or u.p running on it
    u: DMinus
    a: Value
    s: Value
    count: int
    measuring: bool


@dataclass(frozen=True)
class EDotK:
    # the reflected step of config (nu, nv); fuel_before only decides
    # whether the step is memoised, never a result
    nu: int
    nv: int
    fuel_before: int = field(compare=False)


def _dminus_next(k: DMinusK) -> Tuple[DMinusK, Config]:
    code = k.u.c if k.measuring else k.u.p
    return k, Config([code], k.s, typecheck(code)[0])


def _resume(cfg: Config, k, sub: Config, tank: FuelTank):
    """Resume the suspended transition k with its finished child job sub:
    None when the transition is done, else the next (record, child)."""
    if type(k) is EDotK:
        out = _config_to_nums(sub)
        # only cache steps that cost exactly one unit: anything that
        # recursed into a nested run has fuel effects of its own
        if tank.remaining == k.fuel_before - 1:
            memo_store(_estep_memo, (k.nu, k.nv), out)
        cfg.current = PairV(NatV(out[0]), NatV(out[1]))
        return None
    r = sub.current
    if not k.measuring:
        return _dminus_next(DMinusK(k.u, k.a, r, k.count + 1, True))
    if not isinstance(r, NatV):
        raise EvalError("reflected measure returned a non-number")
    if r.n:
        return _dminus_next(DMinusK(k.u, k.a, k.s, k.count, False))
    cfg.current = PairV(k.a, NatV(k.count))
    cfg.value_obj = Prod(typecheck(k.u.p)[0], NAT)
    return None


def _repeats(jobs: list) -> bool:
    """Whether the newly suspended job, at index i of the stack, equals
    the one at index 2^floor(log2 i) - 1 (Brent's cycle detection), field
    by field but for a root's recorders.  The machine is deterministic
    and memoises only unit-cost steps, which suspend nothing, so such a
    job would repeat the ancestor's path one period deeper, forever."""
    i = len(jobs) - 1
    if not i:
        return False
    job, anc = jobs[i], jobs[(1 << i.bit_length() - 1) - 1]
    c, a = job[0], anc[0]
    return (job[1:6] == anc[1:6] and c.current == a.current
            and c.value_obj == a.value_obj and c.frames == a.frames)


# ---------------------------------------------------------------------------
# the run loop

def _tail_measures(ring, total: List[int]) -> Tuple[Tuple[int, Ord], ...]:
    """The (index, measure after the step) entries of the ring's steps.
    total is the raw measure after the newest step; each step is undone
    going backwards: its pushed costs come off, its popped cost goes back."""
    out = []
    for idx, popped, pushed in reversed(ring):
        out.append((idx, _trim(total)))
        _acc_sub(total, pushed)
        _acc_add(total, popped)
    return tuple(reversed(out))


def _drive(cfg: Config, tank: FuelTank,
           on_record: Optional[Callable[[int, Config], None]] = None,
           ) -> Value:
    """The one machine loop, entered only through `eval_iterative`: steps
    cfg and every nested run on an explicit stack of suspended jobs.  A
    job is a config stepped from index 0 to the empty stack (stop -1: a
    run, closed by the stationarity probe; the root is one) or up to
    index stop; every step spends one unit of fuel and checks descent.
    A transition that needs a nested run suspends its job with a
    continuation record k and starts the child job one reflected level
    deeper (tank.depth); the finished child resumes k (`_resume`), and
    the step then finishes with its descent check.  Only the root job
    feeds on_record and a ring of its last ten steps as (index, popped
    cost, pushed sum); when fuel runs out the ring becomes the tail of
    (index, measure after the step) of the fuel outcome it stops with.

    Each newly suspended job is compared with one ancestor (`_repeats`).
    An equal job never returns, so the run drains the tank and stops as
    it would have once the tower below it ran dry.

    Every transition pops exactly the top frame and pushes zero to two
    frames on top of the rest of the stack.  The natural sum is
    cancellative and strictly monotone, so with R the untouched rest,
    P the popped cost and Q the pushed costs, R + sum(Q) < R + P holds
    exactly when sum(Q) < P: comparing those two is the whole descent
    check.  Whole measures (`_measure`) are built only to report a
    violation, and the tail's only when fuel runs out.
    """
    jobs: list = []  # suspended (cfg, idx, stop, k, n, popped, rec, tl)
    depth0, rec = tank.depth, on_record
    ring = tl = deque(maxlen=10)
    idx, stop = 0, -1
    n = popped = None
    try:
        while True:
            if cfg.frames and idx != stop:
                if rec is not None:
                    rec(idx, cfg)
                n = len(cfg.costs) - 1
                popped = cfg.costs[n]
                tank.spend()
                nxt = _fire(cfg, tank)
            else:
                if stop < 0:
                    # stationarity probe: stepping the empty stack is a no-op
                    cur, vo = cfg.current, cfg.value_obj
                    _fire(cfg, tank)
                    if (cfg.frames or cfg.current is not cur
                            or cfg.value_obj is not vo):
                        raise _Stop(StatViolation(idx))
                if not jobs:
                    return cfg.current
                sub = cfg
                cfg, idx, stop, k, n, popped, rec, tl = jobs.pop()
                tank.depth -= 1
                nxt = _resume(cfg, k, sub, tank)
            if nxt is not None:
                k, sub = nxt
                jobs.append((cfg, idx, stop, k, n, popped, rec, tl))
                if _repeats(jobs):
                    tank.remaining = 0
                    raise _OutOfFuel(nested=True)
                tank.depth += 1
                cfg, idx, rec, tl = sub, 0, None, None
                stop = 1 if type(k) is EDotK else -1
                continue
            # every transition pushes zero, one or two frames
            costs = cfg.costs
            m = len(costs) - n
            if m == 2:
                pushed = ord_nat_sum(costs[n], costs[n + 1])
            else:
                pushed = costs[n] if m else ()
            if ord_cmp(pushed, popped) != LESS:
                raise _Stop(DescentViolation(
                    idx, _measure(costs[:n] + [popped]), _measure(costs)))
            if tl is not None:
                tl.append((idx, popped, pushed))
            idx += 1
    except _OutOfFuel as e:
        # the root's stack before its unfinished step, which may have
        # popped its frame already (a dminus or an edot miss in flight)
        if jobs:
            cfg, n, popped = jobs[0][0], jobs[0][4], jobs[0][5]
        kind = NestedFuelExhausted if e.nested else FuelExhausted
        raise _Stop(kind(_tail_measures(
            ring, list(_measure(cfg.costs[:n] + [popped])))))
    finally:
        tank.depth = depth0


# ---------------------------------------------------------------------------
# outcomes

@dataclass(frozen=True)
class Done:
    value: Value


@dataclass(frozen=True)
class FuelExhausted:
    tail: Tuple[Tuple[int, Ord], ...]  # trailing (step, complexity) entries


@dataclass(frozen=True)
class NestedFuelExhausted:
    tail: Tuple[Tuple[int, Ord], ...]


@dataclass(frozen=True)
class DescentViolation:
    step: int
    before: Ord
    after: Ord


@dataclass(frozen=True)
class StatViolation:
    step: int


@dataclass(frozen=True)
class EvalFailure:
    reason: str


Outcome = Union[Done, FuelExhausted, NestedFuelExhausted, DescentViolation,
                StatViolation, EvalFailure]


def check_arg(u: Term, v: Value) -> Obj:
    """The domain of u, once v is known to fit it (else TypeMismatch)."""
    dom, _ = typecheck(u)
    if not shape_fits(dom, v):
        raise TypeMismatch(f"argument does not fit {dom}")
    return dom


def eval_iterative(u: Term, v: Value, fuel: int = DEFAULT_FUEL,
                   on_record: Optional[Callable[[int, Config], None]] = None,
                   ) -> Outcome:
    """Run the machine from ([u], v) until complexity zero."""
    cfg = Config([u], v, check_arg(u, v))
    tank = FuelTank(fuel)
    try:
        return Done(_drive(cfg, tank, on_record))
    except _Stop as e:
        return e.outcome
    except (EvalError, IllTyped) as e:
        return EvalFailure(str(e))


def outcome_kind(o: Outcome) -> str:
    return type(o).__name__


# ---------------------------------------------------------------------------
# tracing and agreement reports

def _render_frame(fr: Frame) -> str:
    t = type(fr)
    if t is PairLeft:
        return (f"PairLeft[{print_value(fr.saved)}]:"
                + print_term(fr.g, const_sigil=True))
    if t is PairRight:
        return f"PairRight[{print_value(fr.left)}]"
    if t is IterPending:
        return (f"IterPending[{fr.remaining}]:"
                + print_term(fr.g, const_sigil=True))
    if t is RestrictCheck:
        return "RestrictCheck:" + print_term(fr.ab.chi, const_sigil=True)
    return "Apply:" + print_term(fr, const_sigil=True)


def trace(u: Term, v: Value, fuel: int = DEFAULT_FUEL,
          ) -> Tuple[List[str], Outcome]:
    """One record per fired step, deterministic; returns (records, outcome)."""
    records: List[str] = []

    def rec(idx: int, cfg: Config) -> None:
        frames = "|".join(_render_frame(fr) for fr in cfg.frames)
        records.append(
            f"step={idx} frames={frames} "
            f"complexity={ord_brackets(cfg.ord())} "
            f"value={print_value(cfg.current)}")

    outcome = eval_iterative(u, v, fuel, on_record=rec)
    return records, outcome


@dataclass(frozen=True)
class ObjectivityEntry:
    arg: Value
    kind: str  # match | mismatch | both_fail | fuel
    outcome: Outcome
    steps: int  # top-level steps fired, the failing one included


@dataclass(frozen=True)
class ObjectivityReport:
    term: Term
    entries: Tuple[ObjectivityEntry, ...]

    @property
    def mismatches(self) -> Tuple[ObjectivityEntry, ...]:
        return tuple(e for e in self.entries if e.kind == "mismatch")

    @property
    def fuel_exhaustions(self) -> Tuple[ObjectivityEntry, ...]:
        return tuple(e for e in self.entries if e.kind == "fuel")

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.fuel_exhaustions


def objectivity_check(t: Term, args, fuel: int = DEFAULT_FUEL,
                      ) -> ObjectivityReport:
    """Compare the machine against structural evaluation on sample args.

    A machine value that differs from the structural one, a machine
    failure where the structural walk succeeds, and a descent or
    stationarity violation are all mismatches; running out of fuel is
    not, since it says nothing about the value.
    """
    entries = []
    steps = 0

    def count_step(idx: int, _cfg: Config) -> None:
        nonlocal steps
        steps = idx + 1

    for arg in args:
        try:
            expected: Optional[Value] = eval_structural(t, arg)
        except EvalError:
            expected = None
        steps = 0
        got = eval_iterative(t, arg, fuel, on_record=count_step)
        if isinstance(got, Done):
            kind = "match" if got.value == expected else "mismatch"
        elif isinstance(got, EvalFailure):
            kind = "both_fail" if expected is None else "mismatch"
        elif isinstance(got, (FuelExhausted, NestedFuelExhausted)):
            kind = "fuel"
        else:
            kind = "mismatch"
        entries.append(ObjectivityEntry(arg, kind, got, steps))
    return ObjectivityReport(t, tuple(entries))


__all__ = [
    "Config", "DEFAULT_FUEL", "DescentViolation", "Done", "EvalFailure",
    "Frame", "FuelExhausted", "FuelTank", "IterPending",
    "NestedFuelExhausted", "ObjectivityEntry", "ObjectivityReport",
    "Outcome", "PairLeft", "PairRight", "RestrictCheck", "StatViolation",
    "check_arg", "complexity", "decode_config", "decode_value",
    "encode_config", "encode_value", "eval_iterative", "eval_structural",
    "frame_cost", "objectivity_check", "outcome_kind", "sd_pair",
    "sd_unpair", "trace",
]
