"""Goedel coding: numeric code values, canonical counts, and the predicate count.

Codes are the terms themselves; this module gives them numbers.  The
numbering is type-directed: for each typing (dom, cod) there is a bijective
rank between the naturals and the well-typed codes of that typing, built
from a fixed listing of the constructors available there.  num combines the
two object ranks with the code's rank via Cantor pairing, so distinct codes
get distinct numbers and the typing can be read back off the number.

Each kind of code has one numbering inside num.  Surface-grammar codes
(everything except ConstVal) sit on even slots via the bijective rank.
ConstVal-bearing machine codes, the configuration chains the reflected
evaluator builds, have no rank: they sit on odd slots via a self-delimiting
structural code.  A rank slot doubles in size with every constructor
wrapped around a captured value, while the structural code stays linear in
the bits it contains.  Values themselves are numbered only by that
structural codec (encode_value) and by the canonical count (cont).  The
predicate count # enumerates surface-grammar codes of type N -> Two, in
rank order; num is strictly monotone along it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .term import (
    Abstr, Bang, CDot, Comp, ConstVal, Cyl, DMinus, EDot, EqNat, EvalError,
    FalseC, HashC, Id, Incl, Iter, NAT, NN, NotC, Obj, Pair, PairV, Prod,
    ProjL, ProjR, Restrict, Succ, TWO, Term, TrueC, TypeMismatch, UNIT,
    UNITV, Unit, Nat, NatV, UnitV, Value, ZeroC, eval_structural, lt2,
    node_fact, typecheck, value_check,
)
# one integer Cantor pairing, shared with the structural evaluator's host
# arithmetic for the cantor_pair and cantor_unpair terms
from .term import nat_pair as cantor_pair, nat_unpair as cantor_unpair

Code = Term  # codes and terms share one representation


class IllTyped(Exception):
    """A number or tree that does not denote a well-typed canonical code."""


class NotAPredicateCode(Exception):
    """Argument to the predicate-count inverse is not a code of type N -> Two."""


### self-delimiting pairing and value numbers

def sd_pair(x: int, y: int) -> int:
    """Self-delimiting pairing: the encoding grows by about the sum of the
    argument bit lengths, so nested pairs stay linear in total size."""
    lx = (x + 1).bit_length() - 1
    bx = x + 1 - (1 << lx)
    ly = (y + 1).bit_length() - 1
    by = y + 1 - (1 << ly)
    prefix = (((1 << lx) - 1) << (lx + 1)) | bx  # 1^lx 0 bx
    return (1 << (2 * lx + 1 + ly)) | (prefix << ly) | by


def sd_unpair(n: int) -> Tuple[int, int]:
    if n < 2:
        raise EvalError(f"{n} does not encode a pair")
    w = n.bit_length() - 1
    rest = n - (1 << w)
    # leading-ones run of the w-bit field, found via its complement
    lx = w - (rest ^ ((1 << w) - 1)).bit_length()
    if 2 * lx + 1 > w:
        raise EvalError(f"{n} does not encode a pair")
    ly = w - (2 * lx + 1)
    bx = (rest >> ly) & ((1 << lx) - 1)
    by = rest & ((1 << ly) - 1)
    return (1 << lx) + bx - 1, (1 << ly) + by - 1


def encode_value(obj: Obj, v: Value) -> int:
    if isinstance(obj, Nat):
        if not isinstance(v, NatV):
            raise EvalError("number expected")
        return v.n
    if isinstance(obj, Unit):
        if not isinstance(v, UnitV):
            raise EvalError("unit value expected")
        return 0
    if isinstance(obj, Prod):
        if not isinstance(v, PairV):
            raise EvalError("pair expected")
        return sd_pair(encode_value(obj.left, v.left),
                       encode_value(obj.right, v.right))
    return encode_value(obj.carrier, v)


def decode_value(obj: Obj, n: int) -> Value:
    if isinstance(obj, Nat):
        return NatV(n)
    if isinstance(obj, Unit):
        if n != 0:
            raise EvalError(f"{n} does not encode the unit value")
        return UNITV
    if isinstance(obj, Prod):
        x, y = sd_unpair(n)
        return PairV(decode_value(obj.left, x), decode_value(obj.right, y))
    v = decode_value(obj.carrier, n)
    if eval_structural(obj.chi, v) != NatV(1):
        raise EvalError("decoded value lies outside the abstraction")
    return v


### quoting

def quote(t: Term) -> Code:
    """Terms are their own codes; quoting just certifies typing."""
    typecheck(t)
    return t


def decode(c: Code) -> Term:
    """Certify a code tree; reflected constructors pass through as
    machine-level descriptors."""
    try:
        typecheck(c)
    except TypeMismatch as e:
        raise IllTyped(str(e)) from e
    return c


@node_fact("_cv")
def contains_constval(c: Code) -> bool:
    if isinstance(c, ConstVal):
        return True
    if isinstance(c, (Pair, Comp)):
        return contains_constval(c.f) or contains_constval(c.g)
    if isinstance(c, (Cyl, Iter)):
        return contains_constval(c.g)
    if isinstance(c, Restrict):
        return contains_constval(c.f)
    if isinstance(c, DMinus):
        return contains_constval(c.c) or contains_constval(c.p)
    return False


### canonical counts

def cont_raw(obj: Obj, n: int) -> Value:
    """The n-th carrier value of obj's skeleton (a bijection for Nat/Prod)."""
    if isinstance(obj, Nat):
        return NatV(n)
    if isinstance(obj, Unit):
        return UNITV
    if isinstance(obj, Prod):
        x, y = cantor_unpair(n)
        return PairV(cont_raw(obj.left, x), cont_raw(obj.right, y))
    return cont_raw(obj.carrier, n)


def cont(obj: Obj, a0: Value, n: int) -> Value:
    """Retractive count of obj's values, anchored at the point a0: every
    member is hit at some index; indices whose carrier value fails the
    predicate fall back to a0."""
    if isinstance(obj, Nat):
        return NatV(n)
    if isinstance(obj, Unit):
        return UNITV
    if isinstance(obj, Prod):
        x, y = cantor_unpair(n)
        return PairV(cont(obj.left, a0.left, x), cont(obj.right, a0.right, y))
    v = cont(obj.carrier, a0, n)
    return v if value_check(obj, v) else a0


### type-directed code ranking

def _leaves(a: Obj, b: Obj) -> List[Code]:
    """The finitely many childless codes at typing (a, b), in canonical order."""
    out: List[Code] = []
    if a == b:
        out.append(Id(a))
    if b == UNIT:
        out.append(Bang(a))
    if a == UNIT:
        out.append(ZeroC(b))
    if a == NAT and b == NAT:
        out.append(Succ())
    if isinstance(a, Prod) and b == a.left:
        out.append(ProjL(a.left, a.right))
    if isinstance(a, Prod) and b == a.right:
        out.append(ProjR(a.left, a.right))
    if a == UNIT and b == TWO:
        out.append(TrueC())
        out.append(FalseC())
    if a == TWO and b == TWO:
        out.append(NotC())
    if a == NN and b == TWO:
        out.append(EqNat())
    if isinstance(a, Abstr) and b == a.carrier:
        out.append(Incl(a))
    if a == NN and b == NAT:
        out.append(CDot())
    if a == NN and b == NN:
        out.append(EDot())
    if a == NAT and b == NAT:
        out.append(HashC())
    return out


_F_COMP, _F_PAIR, _F_CYL, _F_ITER, _F_RESTRICT, _F_DMINUS = range(6)


def _families(a: Obj, b: Obj) -> List[int]:
    """The infinite constructor families available at typing (a, b)."""
    fams = [_F_COMP]
    if isinstance(b, Prod):
        fams.append(_F_PAIR)
    if isinstance(a, Prod) and isinstance(b, Prod) and a.left == b.left:
        fams.append(_F_CYL)
    if isinstance(a, Prod) and a.right == NAT and a.left == b:
        fams.append(_F_ITER)
    if isinstance(b, Abstr):
        fams.append(_F_RESTRICT)
    if isinstance(b, Prod) and b.left == a and b.right == NAT:
        fams.append(_F_DMINUS)
    return fams


MEMO_CAP = 200_000


def memo_store(table: dict, key, value) -> None:
    """The one cap of the number-keyed memo tables (facts of a node live on
    the node): a table past MEMO_CAP entries is emptied before the store."""
    if len(table) > MEMO_CAP:
        table.clear()
    table[key] = value


def unrank_code(a: Obj, b: Obj, n: int) -> Code:
    """The n-th code of typing (a, b): leaves first, then the families
    interleaved round-robin.  Total and bijective for every typing."""
    leaves = _leaves(a, b)
    if n < len(leaves):
        c = leaves[n]
    else:
        fams = _families(a, b)
        rem = n - len(leaves)
        fam = fams[rem % len(fams)]
        i = rem // len(fams)
        if fam == _F_COMP:
            mo, rest = cantor_unpair(i)
            mid = obj_unrank(mo)
            gi, fi = cantor_unpair(rest)
            c = Comp(unrank_code(mid, b, gi), unrank_code(a, mid, fi))
        elif fam == _F_PAIR:
            fi, gi = cantor_unpair(i)
            c = Pair(unrank_code(a, b.left, fi), unrank_code(a, b.right, gi))
        elif fam == _F_CYL:
            c = Cyl(a.left, unrank_code(a.right, b.right, i))
        elif fam == _F_ITER:
            c = Iter(unrank_code(b, b, i))
        elif fam == _F_RESTRICT:
            c = Restrict(unrank_code(a, b.carrier, i), b)
        else:
            ci, pi = cantor_unpair(i)
            c = DMinus(unrank_code(a, NAT, ci), unrank_code(a, a, pi))
    return c


def rank_code(a: Obj, b: Obj, c: Code) -> int:
    """Inverse of unrank_code at the code's principal typing, kept on the
    code as (a, b, rank).  A ConstVal has no rank: it is not a leaf or a
    family of any typing, so it raises IllTyped."""
    hit = getattr(c, "_rank", None)
    if hit is not None and hit[0] is a and hit[1] is b:
        return hit[2]
    leaves = _leaves(a, b)
    if c in leaves:
        n = leaves.index(c)
    else:
        fams = _families(a, b)
        if isinstance(c, Comp):
            mid = typecheck(c.f)[1]
            fam, i = _F_COMP, cantor_pair(
                obj_rank(mid),
                cantor_pair(rank_code(mid, b, c.g), rank_code(a, mid, c.f)))
        elif isinstance(c, Pair):
            fam, i = _F_PAIR, cantor_pair(
                rank_code(a, b.left, c.f), rank_code(a, b.right, c.g))
        elif isinstance(c, Cyl):
            fam, i = _F_CYL, rank_code(a.right, b.right, c.g)
        elif isinstance(c, Iter):
            fam, i = _F_ITER, rank_code(b, b, c.g)
        elif isinstance(c, Restrict):
            fam, i = _F_RESTRICT, rank_code(a, b.carrier, c.f)
        elif isinstance(c, DMinus):
            fam, i = _F_DMINUS, cantor_pair(
                rank_code(a, NAT, c.c), rank_code(a, a, c.p))
        else:
            raise IllTyped(f"{type(c).__name__} has no slot at this typing")
        if fam not in fams:
            raise IllTyped(f"{type(c).__name__} not available at this typing")
        n = len(leaves) + i * len(fams) + fams.index(fam)
    c._rank = (a, b, n)
    return n


### object ranking (Two is interned at rank 2)

@node_fact("_rank")
def obj_rank(obj: Obj) -> int:
    if isinstance(obj, Unit):
        return 0
    if isinstance(obj, Nat):
        return 1
    if obj is TWO:
        return 2
    if isinstance(obj, Prod):
        return 3 + 2 * cantor_pair(obj_rank(obj.left), obj_rank(obj.right))
    k = cantor_pair(obj_rank(obj.carrier), rank_code(obj.carrier, TWO, obj.chi))
    if k > _TWO_SLOT:
        k -= 1
    return 4 + 2 * k


def obj_unrank(n: int) -> Obj:
    if n == 0:
        return UNIT
    if n == 1:
        return NAT
    if n == 2:
        return TWO
    if (n - 3) % 2 == 0:
        l, r = cantor_unpair((n - 3) // 2)
        return Prod(obj_unrank(l), obj_unrank(r))
    k = (n - 4) // 2
    if k >= _TWO_SLOT:
        k += 1
    cr, chir = cantor_unpair(k)
    carrier = obj_unrank(cr)
    return Abstr(carrier, unrank_code(carrier, TWO, chir))


# Two's own Abstr slot, which obj_rank 2 takes over
_TWO_SLOT = cantor_pair(obj_rank(NAT), rank_code(NAT, TWO, lt2))


### numeric code values

# machine-code constructor tags for the structural (odd-slot) numbering
(_SD_COMP, _SD_PAIR, _SD_CYL, _SD_ITER, _SD_RESTRICT, _SD_DMINUS,
 _SD_CONSTVAL) = range(7)


def _sd_child(c: Code) -> int:
    # pure surface subtrees ride as their own num; only the spine that
    # carries captured values uses the structural code
    if contains_constval(c):
        return sd_pair(1, _sd_code(c))
    return sd_pair(0, num(c))


def _sd_code(c: Code) -> int:
    if isinstance(c, ConstVal):
        payload = sd_pair(obj_rank(c.obj), encode_value(c.obj, c.value))
        return sd_pair(_SD_CONSTVAL, payload)
    if isinstance(c, Comp):
        return sd_pair(_SD_COMP, sd_pair(_sd_child(c.g), _sd_child(c.f)))
    if isinstance(c, Pair):
        return sd_pair(_SD_PAIR, sd_pair(_sd_child(c.f), _sd_child(c.g)))
    if isinstance(c, Cyl):
        return sd_pair(_SD_CYL, sd_pair(obj_rank(c.c), _sd_child(c.g)))
    if isinstance(c, Iter):
        return sd_pair(_SD_ITER, _sd_child(c.g))
    if isinstance(c, Restrict):
        return sd_pair(_SD_RESTRICT, sd_pair(obj_rank(c.ab), _sd_child(c.f)))
    if isinstance(c, DMinus):
        return sd_pair(_SD_DMINUS, sd_pair(_sd_child(c.c), _sd_child(c.p)))
    raise IllTyped(f"{type(c).__name__} cannot carry a machine constant")


def _sd_decode_child(n: int) -> Code:
    flag, payload = sd_unpair(n)
    if flag == 0:
        c = from_num(payload)
        if contains_constval(c):
            raise IllTyped("surface child slot holds a machine constant")
        return c
    if flag == 1:
        c = _sd_decode(payload)
        if not contains_constval(c):
            raise IllTyped("machine child slot holds no machine constant")
        return c
    raise IllTyped(f"{flag} is not a child kind")


def _sd_decode(n: int) -> Code:
    tag, payload = sd_unpair(n)
    if tag == _SD_CONSTVAL:
        orank, venc = sd_unpair(payload)
        obj = obj_unrank(orank)
        return ConstVal(obj, decode_value(obj, venc))
    if tag == _SD_COMP:
        gi, fi = sd_unpair(payload)
        return Comp(_sd_decode_child(gi), _sd_decode_child(fi))
    if tag == _SD_PAIR:
        fi, gi = sd_unpair(payload)
        return Pair(_sd_decode_child(fi), _sd_decode_child(gi))
    if tag == _SD_CYL:
        orank, gi = sd_unpair(payload)
        return Cyl(obj_unrank(orank), _sd_decode_child(gi))
    if tag == _SD_ITER:
        return Iter(_sd_decode_child(payload))
    if tag == _SD_RESTRICT:
        orank, fi = sd_unpair(payload)
        ab = obj_unrank(orank)
        if not isinstance(ab, Abstr):
            raise IllTyped("restriction object is not an abstraction")
        return Restrict(_sd_decode_child(fi), ab)
    if tag == _SD_DMINUS:
        ci, pi = sd_unpair(payload)
        return DMinus(_sd_decode_child(ci), _sd_decode_child(pi))
    raise IllTyped(f"{tag} is not a machine-code tag")


# Numbers to codes, filled by num and from_num: reflected evaluation
# decodes the same handful of configuration numbers thousands of times,
# and a number is read before any node exists.  Codes to numbers need no
# table: a code keeps its number on the node.
_from_num_memo: Dict[int, Code] = {}


@node_fact("_num")
def num(c: Code) -> int:
    """Injective numbering: pair both object ranks with the code's slot
    (even rank slots for surface codes, odd structural slots for
    ConstVal-bearing machine codes)."""
    a, b = typecheck(c)
    if contains_constval(c):
        slot = 2 * _sd_code(c) + 1
    else:
        slot = 2 * rank_code(a, b, c)
    n = cantor_pair(obj_rank(a), cantor_pair(obj_rank(b), slot))
    memo_store(_from_num_memo, n, c)
    return n


def from_num(n: int) -> Code:
    """Inverse of num on its image; other numbers raise IllTyped."""
    hit = _from_num_memo.get(n)
    if hit is not None:
        return hit
    ar, rest = cantor_unpair(n)
    br, slot = cantor_unpair(rest)
    a, b = obj_unrank(ar), obj_unrank(br)
    if slot % 2 == 0:
        c = unrank_code(a, b, slot // 2)
    else:
        try:
            c = _sd_decode((slot - 1) // 2)
        except EvalError as e:
            raise IllTyped(str(e)) from e
        if not contains_constval(c):
            raise IllTyped("odd slot holds no ConstVal: not a canonical code number")
        try:
            typing = typecheck(c)
        except TypeMismatch as e:
            raise IllTyped(str(e)) from e
        if typing != (a, b):
            raise IllTyped("machine code disagrees with its stated typing")
    memo_store(_from_num_memo, n, c)
    return c


### the predicate count #

def pred_count_hash(n: int) -> Code:
    """The n-th surface-grammar code of type N -> Two."""
    return unrank_code(NAT, TWO, n)


def pred_count_inverse(c: Code) -> int:
    """Position of a predicate code in the count; rejects other codes."""
    try:
        typing = typecheck(c)
    except TypeMismatch as e:
        raise NotAPredicateCode(str(e)) from e
    if typing != (NAT, TWO):
        raise NotAPredicateCode(f"typing is {typing[0]} -> {typing[1]}")
    if contains_constval(c):
        raise NotAPredicateCode("machine-internal literal in code")
    return rank_code(NAT, TWO, c)


def hashc_num(n: int) -> int:
    """num(pred_count_hash(n)) in closed form: the object ranks of N and Two
    are 1 and 2, and the n-th predicate code sits on even slot 2n."""
    return cantor_pair(1, cantor_pair(2, 2 * n))


### ordinal codes

def encode_ord(o: Tuple[int, ...]) -> int:
    """Encode an ordinal coefficient tuple as a natural.

    Zero maps to 0; otherwise the length is Cantor-paired with the
    right-nested pairing of the coefficients.  The last coefficient of a
    well-formed tuple is nonzero, which keeps the map injective.
    """
    if not o:
        return 0
    payload = o[-1]
    for c in reversed(o[:-1]):
        payload = cantor_pair(c, payload)
    return cantor_pair(len(o), payload)


def decode_ord(n: int) -> Tuple[int, ...]:
    """Partial inverse of encode_ord; raises ValueError off the image."""
    if n == 0:
        return ()
    k, payload = cantor_unpair(n)
    if k == 0:
        raise ValueError(f"{n} is not an ordinal code")
    coeffs = []
    for _ in range(k - 1):
        c, payload = cantor_unpair(payload)
        coeffs.append(c)
    coeffs.append(payload)
    if coeffs[-1] == 0:
        raise ValueError(f"{n} is not an ordinal code (trailing zero)")
    return tuple(coeffs)
