"""Partial maps, mu-recursion, choice inverses, and controlled iteration.

A partial map f: A -| B is presented by its domain of definition, an
abstraction D_f over A x N, together with an enumeration d: D_f -> A and a
value map hat: D_f -> B.  f(a) is defined iff some n puts (a, n) in D_f;
the value is hat at the least such witness.  All searches are fuel-bounded,
and "undefined" is never certified - only reported as FuelExhausted.

The same discipline drives complexity-controlled iteration (CCI): a step
map p is iterated while a complexity c is positive, where c yields encoded
ordinal values and the runner checks strict descent at every step and
stationarity at zero.  That is the step machine's discipline, so the
runners here report in the machine's outcome classes (`Done`,
`FuelExhausted`, `DescentViolation`, `StatViolation`); only a finished
iteration has its own, `CCIDone`.  A search has no measure, so its
`FuelExhausted` tail is empty; a CCI run's tail holds its last ten
(step, measure after the step) readings, as the machine's does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

from .coding import cont, decode_ord
from .machine import DescentViolation, Done, FuelExhausted, StatViolation
from .ordinal import LESS, Ord, ord_cmp
from .surface import ParseError, _cursor, _parse_obj, _parse_term
from .term import (
    NAT,
    NN,
    TWO,
    UNIT,
    Abstr,
    Bang,
    Comp,
    Cyl,
    EqNat,
    EvalError,
    Id,
    Incl,
    Iter,
    Nat,
    NatV,
    Obj,
    Pair,
    PairV,
    Prod,
    ProjL,
    ProjR,
    Succ,
    Term,
    TrueC,
    TypeMismatch,
    Unit,
    Value,
    ZeroC,
    _eqn,
    _ite,
    _zero_on,
    add,
    cantor_pair,
    cantor_unpair,
    eval_structural,
    find_point,
    has_abstr,
    leq,
    monus,
    mod_cycle,
    mul,
    obj_check,
    one_n,
    pred,
    two_and,
    typecheck,
    value_check,
)

__all__ = [
    "CCIAudit",
    "CCIAuditEntry",
    "CCIDone",
    "CCIInstance",
    "DescentViolation",
    "Done",
    "FuelExhausted",
    "MuEntry",
    "MuReport",
    "PartialMap",
    "StatViolation",
    "UnsupportedConstructor",
    "audit_cci",
    "cci_run",
    "d_minus",
    "define_by_exists",
    "gcd_bound",
    "gcd_cci",
    "gcd_partial",
    "gcd_state",
    "gcd_subtractive_cci",
    "load_cci",
    "make_partial",
    "middle_inverse_partial",
    "middle_inverse_total",
    "mu_agreement_check",
    "mu_search",
    "par_apply",
    "par_compose",
    "structural_middle_inverse",
    "total_as_partial",
]


# ---------------------------------------------------------------------------
# outcomes: the machine's, plus CCIDone

@dataclass(frozen=True)
class CCIDone:
    """A finished iteration: the stationary state and the step count."""

    value: Value
    index: int


class UnsupportedConstructor(Exception):
    """No middle inverse or separable core exists for this term shape."""


# ---------------------------------------------------------------------------
# small term builders

def _both(x: Term, y: Term) -> Term:
    return Comp(two_and, Pair(x, y))


def _mod_term(a: Term, b: Term, dom: Obj) -> Term:
    """a mod b in a single pass of a iterations of term.mod_cycle from
    (0, b).  At b = 0 the cycle never wraps and the result is a itself."""
    seed = Pair(Pair(_zero_on(dom), b), a)
    return Comp(ProjL(NAT, NAT), Comp(mod_cycle, seed))


# ---------------------------------------------------------------------------
# partial maps

@dataclass(frozen=True)
class PartialMap:
    """A partial map base -| target with an explicit domain of definition."""

    base: Obj
    target: Obj
    domain_obj: Abstr
    d: Term
    hat: Term

    def __post_init__(self):
        if (not isinstance(self.domain_obj, Abstr)
                or self.domain_obj.carrier != Prod(self.base, NAT)):
            raise TypeMismatch("domain of definition must abstract base x N")
        if typecheck(self.d) != (self.domain_obj, self.base):
            raise TypeMismatch("enumeration must map the domain to the base")
        if typecheck(self.hat) != (self.domain_obj, self.target):
            raise TypeMismatch("value map must map the domain to the target")


def make_partial(base: Obj, target: Obj, zeta: Term, hat_core: Term,
                 d_core: Optional[Term] = None) -> PartialMap:
    """Assemble a partial map from a domain predicate and a value core.

    zeta: base x N -> Two decides definedness.  hat_core: base x N -> target
    must be safe to evaluate on the whole carrier; its values off the domain
    are irrelevant but do get computed during searches.
    """
    carrier = Prod(base, NAT)
    if typecheck(zeta) != (carrier, TWO):
        raise TypeMismatch("domain predicate must be base x N -> Two")
    if typecheck(hat_core) != (carrier, target):
        raise TypeMismatch("value core must be base x N -> target")
    dom = Abstr(carrier, zeta)
    obj_check(dom)
    if d_core is None:
        d_core = ProjL(base, NAT)
    return PartialMap(base, target, dom,
                      Comp(d_core, Incl(dom)), Comp(hat_core, Incl(dom)))


def total_as_partial(t: Term) -> PartialMap:
    """Wrap a total map as a partial one, defined everywhere at witness 0."""
    base, target = typecheck(t)
    zeta = Comp(TrueC(), Bang(Prod(base, NAT)))
    return make_partial(base, target, zeta, Comp(t, ProjL(base, NAT)))


def _core(t: Term, dom: Abstr, what: str) -> Term:
    # maps built by this module factor as core . incl; composition and
    # inversion need the core so they can act on raw carrier pairs
    if isinstance(t, Comp) and isinstance(t.f, Incl) and t.f.ab == dom:
        return t.g
    raise UnsupportedConstructor(f"partial map has no separable {what} core")


def mu_search(phi: Term, a: Value, fuel: int) -> Union[int, FuelExhausted]:
    """Least n < fuel with phi(a, n) = 1, else FuelExhausted.

    When an index is returned, phi(a, m) was evaluated and found false for
    every m below it.
    """
    dom, cod = typecheck(phi)
    if not isinstance(dom, Prod) or dom.right != NAT or cod != TWO:
        raise TypeMismatch("minimization needs a predicate over A x N")
    if not value_check(dom.left, a):
        raise TypeMismatch("argument outside the predicate's first factor")
    for n in range(fuel):
        if eval_structural(phi, PairV(a, NatV(n))) == NatV(1):
            return n
    return FuelExhausted(())


def par_apply(f: PartialMap, a: Value, fuel: int) -> Union[Done, FuelExhausted]:
    """Evaluate a partial map: find the least witness, then apply hat."""
    got = mu_search(f.domain_obj.chi, a, fuel)
    if isinstance(got, FuelExhausted):
        return got
    return Done(eval_structural(f.hat, PairV(a, NatV(got))))


def par_compose(g: PartialMap, f: PartialMap) -> PartialMap:
    """g after f.

    The composite witness Cantor-pairs the two stage witnesses, which keeps
    the domain of definition a predicate over base x N: unpair n as
    (n1, n2), ask (a, n1) in D_f and (hat_f(a, n1), n2) in D_g.
    """
    if f.target != g.base:
        raise TypeMismatch("stages do not meet: target of f is not base of g")
    fc = _core(f.hat, f.domain_obj, "value")
    gc = _core(g.hat, g.domain_obj, "value")
    split = Comp(cantor_unpair, ProjR(f.base, NAT))
    n1 = Comp(ProjL(NAT, NAT), split)
    n2 = Comp(ProjR(NAT, NAT), split)
    x1 = Pair(ProjL(f.base, NAT), n1)
    x2 = Pair(Comp(fc, x1), n2)
    zeta = _both(Comp(f.domain_obj.chi, x1), Comp(g.domain_obj.chi, x2))
    return make_partial(f.base, g.target, zeta, Comp(gc, x2))


# ---------------------------------------------------------------------------
# choice constructions

def _count_term(obj: Obj) -> Term:
    """A term N -> obj realizing the canonical count of a fundamental
    carrier; agrees pointwise with the host-side count."""
    if isinstance(obj, Nat):
        return Id(NAT)
    if isinstance(obj, Unit):
        return Bang(NAT)
    if isinstance(obj, Prod):
        return Comp(Pair(Comp(_count_term(obj.left), ProjL(NAT, NAT)),
                         Comp(_count_term(obj.right), ProjR(NAT, NAT))),
                    cantor_unpair)
    raise UnsupportedConstructor("counting needs a fundamental object")


def _eq_term(obj: Obj) -> Term:
    """Componentwise equality obj x obj -> Two for fundamental obj."""
    if isinstance(obj, Nat):
        return EqNat()
    if isinstance(obj, Unit):
        return Comp(TrueC(), Bang(Prod(UNIT, UNIT)))
    if isinstance(obj, Prod):
        l, r = obj.left, obj.right
        pl, pr = ProjL(obj, obj), ProjR(obj, obj)
        lefts = Pair(Comp(ProjL(l, r), pl), Comp(ProjL(l, r), pr))
        rights = Pair(Comp(ProjR(l, r), pl), Comp(ProjR(l, r), pr))
        return _both(Comp(_eq_term(l), lefts), Comp(_eq_term(r), rights))
    raise UnsupportedConstructor("equality needs a fundamental object")


def middle_inverse_partial(f: PartialMap) -> PartialMap:
    """The mu-based choice inverse g, satisfying f . g . f =| f.

    g(b)'s witness indexes the canonical count of f's domain carrier; it is
    accepted when the point lies in D_f and f maps it to b, and g returns
    the enumeration there.  So g(b) is an f-preimage of b whenever b lies
    in the image, and is undefined (fuel runs out) otherwise.
    """
    if has_abstr(f.base) or has_abstr(f.target):
        raise UnsupportedConstructor(
            "choice inverse needs a fundamental base and target")
    fc = _core(f.hat, f.domain_obj, "value")
    dc = _core(f.d, f.domain_obj, "enumeration")
    point = Comp(_count_term(Prod(f.base, NAT)), ProjR(f.target, NAT))
    hit = _both(Comp(f.domain_obj.chi, point),
                Comp(_eq_term(f.target),
                     Pair(Comp(fc, point), ProjL(f.target, NAT))))
    return make_partial(f.target, f.base, hit, Comp(dc, point))


_RET = "ret"    # witness . t = id
_SEC = "sec"    # t . witness = id


def structural_middle_inverse(t: Term) -> Term:
    """A term t' with t . t' . t = t, by case distinction on the structure.

    Only fundamental shapes are supported.  Each case returns a retraction
    or a section where one exists; a composition is invertible this way
    exactly when the outer witness retracts or the inner one sections.
    """
    witness, _ = _smi(t)
    return witness


def _smi(t: Term) -> Tuple[Term, frozenset]:
    dom, cod = typecheck(t)
    if has_abstr(dom) or has_abstr(cod):
        raise UnsupportedConstructor(
            f"{type(t).__name__} involves abstraction objects")
    # canonical arithmetic maps carry handwritten sections the structural
    # cases below cannot recover: pred . succ = id and mul . (id, 1) = id
    if t == pred:
        return Succ(), frozenset((_SEC,))
    if t == mul:
        return Pair(Id(NAT), one_n), frozenset((_SEC,))
    if isinstance(t, Id):
        return t, frozenset((_RET, _SEC))
    if isinstance(t, Succ):
        return pred, frozenset((_RET,))
    if isinstance(t, Bang):
        flags = {_SEC} | ({_RET} if t.obj == UNIT else set())
        return ZeroC(t.obj), frozenset(flags)
    if isinstance(t, ZeroC):
        flags = {_RET} | ({_SEC} if t.obj == UNIT else set())
        return Bang(t.obj), frozenset(flags)
    if isinstance(t, ProjL):
        pad = Pair(Id(t.left), Comp(ZeroC(t.right), Bang(t.left)))
        return pad, frozenset((_SEC,))
    if isinstance(t, ProjR):
        pad = Pair(Comp(ZeroC(t.left), Bang(t.right)), Id(t.right))
        return pad, frozenset((_SEC,))
    if isinstance(t, Iter):
        # iterating zero times is the identity, so (id, 0) sections
        return Pair(Id(cod), _zero_on(cod)), frozenset((_SEC,))
    if isinstance(t, Cyl):
        inner, flags = _smi(t.g)
        return Cyl(t.c, inner), flags
    if (isinstance(t, Pair) and isinstance(t.f, ProjR) and isinstance(t.g, ProjL)
            and (t.f.left, t.f.right) == (t.g.left, t.g.right)):
        # a transposition is its own two-sided inverse up to component order
        back = Pair(ProjR(cod.left, cod.right), ProjL(cod.left, cod.right))
        return back, frozenset((_RET, _SEC))
    if isinstance(t, Pair):
        for side, proj in ((t.f, ProjL(cod.left, cod.right)),
                           (t.g, ProjR(cod.left, cod.right))):
            try:
                inner, flags = _smi(side)
            except UnsupportedConstructor:
                continue
            if _RET in flags:
                return Comp(inner, proj), frozenset((_RET,))
        raise UnsupportedConstructor("no retractable component in the pairing")
    if isinstance(t, Comp):
        gi, gflags = _smi(t.g)
        fi, fflags = _smi(t.f)
        if _RET not in gflags and _SEC not in fflags:
            raise UnsupportedConstructor(
                "composition needs an outer retraction or an inner section")
        return Comp(fi, gi), gflags & fflags
    raise UnsupportedConstructor(f"no middle inverse for {type(t).__name__}")


def middle_inverse_total(f: Term, a0: Value, fuel: int) -> Callable[[Value], Value]:
    """A total choice inverse with fallback.

    The returned function scans the domain's count for a preimage of b and
    falls back to a0 when the scan runs out; a fallback result does not
    certify that b has no preimage, only that none sits below fuel.
    """
    dom, _ = typecheck(f)
    if not value_check(dom, a0):
        raise TypeMismatch("fallback point must inhabit the domain")

    def inverse(b: Value) -> Value:
        for n in range(fuel):
            cand = cont(dom, a0, n)
            if eval_structural(f, cand) == b:
                return cand
        return a0

    return inverse


# ---------------------------------------------------------------------------
# complexity-controlled iteration

@dataclass(frozen=True)
class CCIInstance:
    """A while-loop: iterate p while the complexity c is positive.

    c yields naturals that decode to ordinal coefficient tuples; the runner
    decodes and compares them, enforcing strict descent above zero and
    stationarity at zero.
    """

    space: Obj
    c: Term
    p: Term

    def __post_init__(self):
        obj_check(self.space)
        if typecheck(self.c) != (self.space, NAT):
            raise TypeMismatch("complexity must map the space to N")
        if typecheck(self.p) != (self.space, self.space):
            raise TypeMismatch("step must be an endomap of the space")


def _measure(inst: CCIInstance, state: Value) -> Ord:
    out = eval_structural(inst.c, state)
    try:
        return decode_ord(out.n)
    except ValueError as exc:
        raise EvalError(
            f"complexity output {out.n} is not an ordinal code") from exc


def cci_run(inst: CCIInstance, a: Value, fuel: int):
    """Iterate p from a while c > 0.

    Returns CCIDone(final state, termination index) on success; the index
    is the number of steps taken, minimal by construction.  Descent is
    checked across every step, stationarity once the complexity is zero.
    The run is deterministic, so a failure's step number names its state:
    p applied that many times to a.
    """
    if not value_check(inst.space, a):
        raise TypeMismatch("start state outside the space")
    state = a
    cur = _measure(inst, state)
    idx = 0
    tail: deque = deque(maxlen=10)
    while cur != ():
        if idx >= fuel:
            return FuelExhausted(tuple(tail))
        nxt = eval_structural(inst.p, state)
        after = _measure(inst, nxt)
        if ord_cmp(after, cur) != LESS:
            return DescentViolation(idx, cur, after)
        state, cur = nxt, after
        tail.append((idx, cur))
        idx += 1
    if eval_structural(inst.p, state) != state:
        return StatViolation(idx)
    return CCIDone(value=state, index=idx)


def d_minus(inst: CCIInstance, a: Value, fuel: int):
    """The canonical opposite of the iteration: a |-> (a, termination index)."""
    got = cci_run(inst, a, fuel)
    if isinstance(got, CCIDone):
        return Done(PairV(a, NatV(got.index)))
    return got


@dataclass(frozen=True)
class CCIAuditEntry:
    arg: Value
    outcome: str            # "done" | "fuel" | "desc" | "stat"
    index: Optional[int]    # step count for "done", failing step for "desc"


@dataclass(frozen=True)
class CCIAudit:
    entries: Tuple[CCIAuditEntry, ...]
    ok: bool


def audit_cci(inst: CCIInstance, args: Sequence[Value], fuel: int) -> CCIAudit:
    """Sampled up-front check of the descent and stationarity premises."""
    entries = []
    for a in args:
        got = cci_run(inst, a, fuel)
        if isinstance(got, CCIDone):
            entries.append(CCIAuditEntry(a, "done", got.index))
        elif isinstance(got, FuelExhausted):
            entries.append(CCIAuditEntry(a, "fuel", None))
        elif isinstance(got, DescentViolation):
            entries.append(CCIAuditEntry(a, "desc", got.step))
        else:
            entries.append(CCIAuditEntry(a, "stat", None))
    ok = not any(e.outcome in ("desc", "stat") for e in entries)
    return CCIAudit(tuple(entries), ok)


# ---------------------------------------------------------------------------
# definition by existence, mu agreement

def define_by_exists(phi: Term, a: Value, fuel: int,
                     point: Optional[Value] = None):
    """First b in the value object's count with phi(a, b) = 1.

    The existence premise is only ever witnessed: a FuelExhausted outcome
    says no witness sits below fuel, not that none exists.
    """
    dom, cod = typecheck(phi)
    if not isinstance(dom, Prod) or cod != TWO:
        raise TypeMismatch("definition by existence needs A x B -> Two")
    values = dom.right
    if not value_check(dom.left, a):
        raise TypeMismatch("argument outside the predicate's first factor")
    if point is None:
        point = find_point(values)
        if point is None:
            raise EvalError("value object has no reachable point")
    for n in range(fuel):
        b = cont(values, point, n)
        if eval_structural(phi, PairV(a, b)) == NatV(1):
            return Done(b)
    return FuelExhausted(())


@dataclass(frozen=True)
class MuEntry:
    arg: Value
    searched: Optional[int]
    brute: Optional[int]
    agree: bool


@dataclass(frozen=True)
class MuReport:
    entries: Tuple[MuEntry, ...]
    ok: bool


def mu_agreement_check(phi: Term, samples: Sequence[Value], fuel: int) -> MuReport:
    """Compare mu_search against a full scan on each sampled argument.

    The scan evaluates the predicate at every index below fuel and takes
    the minimum holder; both sides finding no witness counts as agreement.
    """
    entries = []
    for a in samples:
        got = mu_search(phi, a, fuel)
        searched = None if isinstance(got, FuelExhausted) else got
        hits = [n for n in range(fuel)
                if eval_structural(phi, PairV(a, NatV(n))) == NatV(1)]
        brute = min(hits) if hits else None
        entries.append(MuEntry(a, searched, brute, searched == brute))
    return MuReport(tuple(entries), all(e.agree for e in entries))


# ---------------------------------------------------------------------------
# worked instances

def gcd_cci() -> CCIInstance:
    """Euclid as a CCI on states (a, (b, t)): one mod-and-swap per tick.

    t is an explicit tick budget (seed states come from gcd_state) and the
    complexity is the degree-0 ordinal (t), so every step descends strictly
    and the termination index equals the seeded budget.  Once b reaches 0
    the remaining ticks leave the pair alone; the gcd sits in the first
    component of the final state.
    """
    space = Prod(NAT, NN)
    a = ProjL(NAT, NN)
    rest = ProjR(NAT, NN)
    b = Comp(ProjL(NAT, NAT), rest)
    t = Comp(ProjR(NAT, NAT), rest)
    zero = _zero_on(space)
    t_done = _eqn(t, zero)
    b_done = _eqn(b, zero)
    tick = Comp(pred, t)
    advance = Pair(b, Pair(_mod_term(a, b, space), tick))
    idle = Pair(a, Pair(b, tick))
    step = _ite(space, t_done, Id(space), _ite(space, b_done, idle, advance))
    code = Comp(cantor_pair, Pair(Comp(Succ(), zero), t))
    complexity = _ite(NAT, t_done, zero, code)
    return CCIInstance(space, complexity, step)


def gcd_bound(a: int, b: int) -> int:
    """A tick budget sufficient for Euclid from (a, b): the second
    component at least halves every two mod-and-swap steps."""
    return 2 * max(a, b, 1).bit_length() + 4


def gcd_state(a: int, b: int) -> Value:
    """Seed state (a, (b, budget)) for gcd_cci."""
    return PairV(NatV(a), PairV(NatV(b), NatV(gcd_bound(a, b))))


def gcd_subtractive_cci() -> CCIInstance:
    """Subtractive Euclid on bare pairs: subtract the smaller or swap.

    The complexity is the ordinal a + omega*b, which drops strictly on both
    branches: a swap lowers the omega coefficient, a subtraction keeps it
    and lowers the constant.  Complexity codes grow quadratically with the
    state, so this variant is meant for small inputs.
    """
    a = ProjL(NAT, NAT)
    b = ProjR(NAT, NAT)
    zero = _zero_on(NN)
    b_done = _eqn(b, zero)
    smaller = Comp(leq, Pair(Comp(Succ(), a), b))
    swapped = Pair(b, a)
    subbed = Pair(Comp(monus, Pair(a, b)), b)
    step = _ite(NN, b_done, Id(NN), _ite(NN, smaller, swapped, subbed))
    two = Comp(Succ(), Comp(Succ(), zero))
    code = Comp(cantor_pair, Pair(two, Comp(cantor_pair, Pair(a, b))))
    complexity = _ite(NAT, b_done, zero, code)
    return CCIInstance(NN, complexity, step)


def gcd_partial() -> PartialMap:
    """gcd as a partial map N x N -| N.

    The witness n names the candidate divisor K - n with K = a + b + 1, so
    the least accepted witness is the greatest common divisor; the value
    map returns the divisor itself.
    """
    carrier = Prod(NN, NAT)
    ab = ProjL(NN, NAT)
    n = ProjR(NN, NAT)
    a = Comp(ProjL(NAT, NAT), ab)
    b = Comp(ProjR(NAT, NAT), ab)
    bound = Comp(Succ(), Comp(add, Pair(a, b)))
    cand = Comp(monus, Pair(bound, n))
    divides_a = _eqn(_mod_term(a, cand, carrier), _zero_on(carrier))
    divides_b = _eqn(_mod_term(b, cand, carrier), _zero_on(carrier))
    return make_partial(NN, NAT, _both(divides_a, divides_b), cand)


# ---------------------------------------------------------------------------
# instance files

def load_cci(src: str) -> CCIInstance:
    """Read one (cci A c p) form, the .pr syntax for iteration instances."""
    cur = _cursor(src)
    cur.match("(")
    head, pos = cur.take("'cci'")
    if head != "cci":
        raise ParseError(pos, "'cci'")
    space = _parse_obj(cur)
    c = _parse_term(cur)
    p = _parse_term(cur)
    cur.match(")")
    cur.done()
    return CCIInstance(space, c, p)
