"""Ordinals below omega^omega as polynomial coefficient tuples.

An ordinal c_k*w^k + ... + c_1*w + c_0 is the tuple (c_0, c_1, ..., c_k),
little endian, with no trailing zeros.  Zero is the empty tuple.  These are
exactly the termination measures the step machine descends along.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

Ord = Tuple[int, ...]

LESS, EQUAL, GREATER = -1, 0, 1


def ord_zero() -> Ord:
    return ()


def ord_from_nat(n: int) -> Ord:
    """Embed a natural as a degree-0 ordinal."""
    if n < 0:
        raise ValueError("naturals only")
    return (n,) if n else ()


def ord_cmp(x: Ord, y: Ord) -> int:
    """Compare degree first, then coefficients from the highest power down."""
    if len(x) != len(y):
        return LESS if len(x) < len(y) else GREATER
    for a, b in zip(reversed(x), reversed(y)):
        if a != b:
            return LESS if a < b else GREATER
    return EQUAL


def ord_nat_sum(x: Ord, y: Ord) -> Ord:
    """Natural (Hessenberg) sum: coefficientwise addition."""
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] += c
    return tuple(out)  # no trailing zeros possible: len(x) entry was nonzero


def ord_nat_scale(n: int, x: Ord) -> Ord:
    """n-fold natural sum of x."""
    if n < 0:
        raise ValueError("naturals only")
    if n == 0 or not x:
        return ()
    return tuple(c * n for c in x)


def ord_omega_shift(x: Ord) -> Ord:
    """Multiply by omega on the left: bump every exponent by one.

    Dominates every n (x) + m, which is what lets one iteration frame pay
    for arbitrarily many unfoldings of its body.
    """
    if not x:
        return ()
    return (0,) + x


def descent_check(seq: Sequence[Ord]) -> Optional[int]:
    """First index whose entry fails strict descent, or None.

    Descent is only required while the previous entry is nonzero; after a
    zero the sequence may do anything.
    """
    for i in range(1, len(seq)):
        prev = seq[i - 1]
        if prev and ord_cmp(seq[i], prev) != LESS:
            return i
    return None


def ord_brackets(x: Ord) -> str:
    """Render like [c0,c1,...]; zero is []."""
    return "[" + ",".join(str(c) for c in x) + "]"


def ord_render(x: Ord) -> str:
    """Human form, highest power first: 2*w^2 + w + 3."""
    if not x:
        return "0"
    parts = []
    for k in range(len(x) - 1, -1, -1):
        c = x[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            power = "w" if k == 1 else f"w^{k}"
            parts.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(parts)
