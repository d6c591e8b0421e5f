"""Self-application probe for the coded evaluator.

The reflected operators make the step machine available inside its own
code system: a configuration travels as a pair of numbers, cdot reads its
termination measure, edot fires one transition.  From these this module
assembles an evaluation code that runs an encoded predicate on a number,
then feeds it its own position in the predicate enumeration, negated.
That antidiagonal predicate cannot consistently answer at its own index,
so the run is driven under a fuel bound and the report records what the
machine actually does with the regress.  The regress is a reflected
tower whose levels repeat.  The machine keeps it on its own job stack,
so the probe runs on the calling thread, and detects the repeat a few
levels up: the probe spends a few dozen steps at any fuel and reports
what the full climb would report when its fuel ran out.

A finished value would have to equal its own negation, which no value of
Two does; the verdict ContradictionValue is therefore reserved for a
soundness bug and callers are expected to treat it as fatal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .coding import num, pred_count_inverse
from .machine import Done, Outcome, eval_iterative, outcome_kind
from .ordinal import ord_brackets
from .surface import print_term
from .term import (
    CDot, Comp, DMinus, EDot, HashC, Id, Iter, NAT, NatV, NotC, Pair, PairV,
    ProjR, Restrict, TWO, Term, Value, eval_structural,
)

__all__ = [
    "AgreementEntry", "AgreementReport", "LiarReport", "TraceDigest",
    "build_antidiagonal", "build_eval_code", "antidiagonal_index",
    "eval_code_agreement", "liar_report_lines", "run_liar",
]


def build_eval_code() -> Term:
    """Code of type N x N -> Two running an encoded predicate on a number.

    The argument pair is read as a machine configuration: code number on
    the left, value number on the right.  The descent search counts the
    steps the configuration needs to halt, bounded iteration of the coded
    step replays exactly that many, and the right component of the halted
    configuration is the result, corestricted into Two.
    """
    steps = DMinus(CDot(), EDot())
    replay = Comp(Iter(EDot()), steps)
    return Comp(Restrict(ProjR(NAT, NAT), TWO), replay)


def build_antidiagonal() -> Term:
    """Predicate code on N disagreeing with the n-th predicate at n."""
    stage = Pair(HashC(), Id(NAT))
    return Comp(NotC(), Comp(build_eval_code(), stage))


def antidiagonal_index() -> int:
    """The antidiagonal's own position in the predicate enumeration."""
    return pred_count_inverse(build_antidiagonal())


# ---------------------------------------------------------------------------
# agreement of the coded evaluator with direct evaluation

@dataclass(frozen=True)
class AgreementEntry:
    arg: int
    expected: Value
    outcome: Outcome
    match: bool


@dataclass(frozen=True)
class AgreementReport:
    code: Term
    entries: Tuple[AgreementEntry, ...]
    ok: bool


def eval_code_agreement(phi: Term, args: Iterable[int],
                        fuel: int = 10 ** 5) -> AgreementReport:
    """Run phi through the coded evaluator on each argument and compare
    against direct structural evaluation."""
    ev = build_eval_code()
    phi_num = num(phi)
    entries: List[AgreementEntry] = []
    ok = True
    for a in args:
        expected = eval_structural(phi, NatV(a))
        got = eval_iterative(ev, PairV(NatV(phi_num), NatV(a)), fuel)
        match = got == Done(expected)
        ok = ok and match
        entries.append(AgreementEntry(a, expected, got, match))
    return AgreementReport(phi, tuple(entries), ok)


# ---------------------------------------------------------------------------
# the liar run

@dataclass(frozen=True)
class TraceDigest:
    """First and last few complexity readings of the top-level run."""
    steps: int
    head: Tuple[str, ...]
    tail: Tuple[str, ...]


@dataclass(frozen=True)
class LiarReport:
    d_code: Term
    d_num: int
    q: int
    fuel: int
    outcome: Outcome
    trace_digest: TraceDigest
    verdict: str


_DIGEST_EDGE = 10


def _verdict_of(outcome: Outcome) -> str:
    if isinstance(outcome, Done):
        flipped = eval_structural(NotC(), outcome.value)
        if flipped == outcome.value:
            return "ContradictionValue"
        return "Value"
    return outcome_kind(outcome)


def run_liar(fuel: int = 10 ** 5) -> LiarReport:
    """Evaluate the antidiagonal at its own index under the fuel bound.

    All failure modes come back as report verdicts; the run itself raises
    nothing.  Identical fuel yields an identical report.
    """
    d = build_antidiagonal()
    d_num = num(d)
    q = pred_count_inverse(d)
    head: List[str] = []
    tail: deque = deque(maxlen=_DIGEST_EDGE)
    seen = 0

    def record(idx: int, cfg) -> None:
        nonlocal seen
        seen = idx + 1
        entry = f"{idx}:{ord_brackets(cfg.ord())}"
        if len(head) < _DIGEST_EDGE:
            head.append(entry)
        else:
            tail.append(entry)

    outcome = eval_iterative(d, NatV(q), fuel, on_record=record)
    digest = TraceDigest(seen, tuple(head), tuple(tail))
    return LiarReport(d, d_num, q, fuel, outcome, digest, _verdict_of(outcome))


def liar_report_lines(report: LiarReport) -> List[str]:
    """Deterministic key=value serialization, one field per line."""
    lines = [
        "kind=liar-report",
        f"verdict={report.verdict}",
        f"fuel={report.fuel}",
        f"q={report.q}",
        f"d_num={report.d_num}",
        f"outcome={outcome_kind(report.outcome)}",
    ]
    tail = getattr(report.outcome, "tail", None)
    if tail is not None:
        for step, o in tail:
            lines.append(f"outcome_tail={step}:{ord_brackets(o)}")
    if hasattr(report.outcome, "step"):
        lines.append(f"outcome_step={report.outcome.step}")
    if hasattr(report.outcome, "before"):
        lines.append(f"outcome_before={ord_brackets(report.outcome.before)}")
        lines.append(f"outcome_after={ord_brackets(report.outcome.after)}")
    lines.append(f"steps={report.trace_digest.steps}")
    for entry in report.trace_digest.head:
        lines.append(f"trace_head={entry}")
    for entry in report.trace_digest.tail:
        lines.append(f"trace_tail={entry}")
    lines.append(f"code={print_term(report.d_code)}")
    return lines
