"""Command line front end.

Subcommands cover the whole toolbox: typecheck and evaluate terms, quote
them as numbers, trace machine runs, drive complexity-controlled
iterations, synthesize choice inverses, minimize predicates, probe the
antidiagonal, and sweep a term corpus against the structural oracle.

Exit codes: 0 on success, 1 when an evaluation fails (fuel, descent,
stationarity, a rejected restriction), 2 on usage or type errors, on
files that are not UTF-8 text, on terms and values nested too deeply
for the host stack, and on numerals past the host's limit on decimal
digits.  With `--format records`
output is line-delimited key=value and byte-identical for identical
invocations; `--seed` pins all sampling.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import List, Optional, Tuple

from .coding import IllTyped, NotAPredicateCode, num
from .diagonal import liar_report_lines, run_liar
from .gen import random_value
from .machine import (
    DEFAULT_FUEL, DescentViolation, Done, EvalFailure, FuelExhausted,
    NestedFuelExhausted, Outcome, StatViolation, check_arg, eval_iterative,
    frame_cost, objectivity_check, trace,
)
from .ordinal import LESS, Ord, ord_brackets, ord_cmp
from .partial import (
    CCIDone, UnsupportedConstructor, audit_cci, cci_run, load_cci,
    middle_inverse_total, mu_search, structural_middle_inverse,
)
from .surface import NumeralTooLong, ParseError, parse_term, parse_value, \
    print_nat, print_obj, print_term, print_value
from .term import (
    Comp, EvalError, TypeMismatch, Value, eval_structural, find_point,
    typecheck,
)

DEFAULT_LAW_SAMPLES = 200

__all__ = ["main"]

# add_argument keywords for each flag; a subcommand takes only those it reads
_FLAGS = {
    "term": dict(metavar="PATH", help="term (or corpus) file"),
    "arg": dict(metavar="V", help="value literal: naturals, () for unit, (v,w)"),
    "mode": dict(choices=("structural", "iterative"), default="structural"),
    "fuel": dict(type=int, default=DEFAULT_FUEL),
    "audit": dict(type=int, metavar="N", help="number of sampled checks"),
    "seed": dict(type=int, default=0),
    "format": dict(choices=("text", "records"), default="text"),
    "trace": dict(metavar="PATH", dest="trace_path",
                  help="also write the output records to this file"),
}


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="prcalc", description=__doc__)
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return top


# ---------------------------------------------------------------------------
# small helpers shared by the handlers

class _Usage(Exception):
    """Bad invocation shape: missing flags, unreadable files."""


class _Refused(Exception):
    """Input the tools cannot take: a file that is not UTF-8 text, a
    value nested too deeply for the host stack."""


def _need(value, flag: str, sub: str):
    if value is None:
        raise _Usage(f"{sub} requires {flag}")
    return value


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _Usage(str(e)) from e
    except UnicodeDecodeError as e:
        byte = e.object[e.start]
        raise _Refused(f"{path} is not UTF-8 text: byte 0x{byte:02x} "
                       f"at offset {e.start}") from None


def _arg(a, sub: str) -> Value:
    """The parsed --arg value, which sub requires."""
    text = _need(a.arg, "--arg", sub)
    try:
        return parse_value(text)
    except RecursionError:
        raise _Refused("value nests too deeply") from None


def _load_term(path: str):
    return parse_term(_read(path))


def _emit(lines: List[str], trace_path: Optional[str]) -> None:
    text = "\n".join(lines) + "\n" if lines else ""
    sys.stdout.write(text)
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _exhaustion_step(out) -> int:
    return out.tail[-1][0] + 1 if out.tail else 0


def _outcome_lines(out: Outcome, records: bool) -> Tuple[List[str], int]:
    """Render a machine outcome; the exit code distinguishes failures."""
    if isinstance(out, Done):
        val = print_value(out.value)
        return (["outcome=Done", f"value={val}"] if records else [val]), 0
    if isinstance(out, FuelExhausted):
        step = _exhaustion_step(out)
        if records:
            return ["outcome=FuelExhausted", f"step={step}"], 1
        return [f"fuel exhausted at step {step}"], 1
    if isinstance(out, NestedFuelExhausted):
        step = _exhaustion_step(out)
        if records:
            return ["outcome=NestedFuelExhausted", f"step={step}"], 1
        return [f"nested fuel exhausted at step {step}"], 1
    if isinstance(out, DescentViolation):
        desc = (f"step={out.step} before={ord_brackets(out.before)} "
                f"after={ord_brackets(out.after)}")
        if records:
            return ["outcome=DescentViolation", desc], 1
        return [f"descent violation at {desc}"], 1
    if isinstance(out, StatViolation):
        if records:
            return ["outcome=StatViolation", f"step={out.step}"], 1
        return [f"stationarity violation at step {out.step}"], 1
    assert isinstance(out, EvalFailure)
    if records:
        return ["outcome=EvalFailure", f"reason={out.reason}"], 1
    return [f"evaluation failed: {out.reason}"], 1


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_check(a) -> int:
    dom, cod = typecheck(_load_term(_need(a.term, "--term", "check")))
    if a.format == "records":
        _emit([f"dom={print_obj(dom)}", f"cod={print_obj(cod)}"],
              a.trace_path)
    else:
        _emit([f"{print_obj(dom)} -> {print_obj(cod)}"], a.trace_path)
    return 0


def _cmd_eval(a) -> int:
    t = _load_term(_need(a.term, "--term", "eval"))
    v = _arg(a, "eval")
    if a.mode == "structural":
        check_arg(t, v)  # the check the machine makes when it starts
        try:
            got: Outcome = Done(eval_structural(t, v))
        except EvalError as e:
            got = EvalFailure(str(e))
    else:
        got = eval_iterative(t, v, a.fuel)
    lines, code = _outcome_lines(got, a.format == "records")
    _emit(lines, a.trace_path)
    return code


def _cmd_quote(a) -> int:
    t = _load_term(_need(a.term, "--term", "quote"))
    code, n = print_term(t), print_nat(num(t))
    lines = [f"code={code}", f"num={n}"] if a.format == "records" else [code, n]
    _emit(lines, a.trace_path)
    return 0


def _cmd_run(a) -> int:
    t = _load_term(_need(a.term, "--term", "run"))
    v = _arg(a, "run")
    records, out = trace(t, v, a.fuel)
    out_lines, code = _outcome_lines(out, records=True)
    _emit(records + out_lines, a.trace_path)
    return code


def _cmd_cci(a) -> int:
    inst = load_cci(_read(_need(a.term, "--term", "cci")))
    lines: List[str] = []
    code = 0
    if a.arg is not None:
        got = cci_run(inst, _arg(a, "cci"), a.fuel)
        if not isinstance(got, CCIDone):
            lines, code = _outcome_lines(got, a.format == "records")
        elif a.format == "records":
            lines += [f"value={print_value(got.value)}", f"index={got.index}"]
        else:
            lines.append(f"({print_value(got.value)}, {got.index})")
    if a.audit is not None:
        rng = random.Random(f"{a.seed}:cci")
        args = [random_value(rng, inst.space) for _ in range(a.audit)]
        report = audit_cci(inst, args, a.fuel)
        for e in report.entries:
            lines.append(f"audit arg={print_value(e.arg)} "
                         f"outcome={e.outcome} index={e.index}")
        lines.append(f"audit_ok={report.ok}")
        code = code or (0 if report.ok else 1)
    if a.arg is None and a.audit is None:
        raise _Usage("cci requires --arg or --audit")
    _emit(lines, a.trace_path)
    return code


def _cmd_choice(a) -> int:
    f = _load_term(_need(a.term, "--term", "choice"))
    dom, _ = typecheck(f)
    if a.arg is not None:
        # the search-based inverse, evaluated at one point
        base = find_point(dom, 512)
        if base is None:
            raise _Usage("could not find a fallback point in the domain")
        g = middle_inverse_total(f, base, a.fuel)
        _emit([print_value(g(_arg(a, "choice")))], a.trace_path)
        return 0
    w = structural_middle_inverse(f)
    fgf = Comp(f, Comp(w, f))
    n = DEFAULT_LAW_SAMPLES if a.audit is None else a.audit
    rng = random.Random(f"{a.seed}:choice")
    passes = 0
    for _ in range(n):
        x = random_value(rng, dom)
        passes += eval_structural(fgf, x) == eval_structural(f, x)
    if a.format == "records":
        lines = [f"witness={print_term(w)}", f"law={passes}/{n}"]
    else:
        lines = [print_term(w), f"law {passes}/{n}"]
    _emit(lines, a.trace_path)
    return 0 if passes == n else 1


def _cmd_mu(a) -> int:
    phi = _load_term(_need(a.term, "--term", "mu"))
    v = _arg(a, "mu")
    got = mu_search(phi, v, a.fuel)
    if isinstance(got, FuelExhausted):
        _emit([f"no witness below {a.fuel}"], a.trace_path)
        return 1
    _emit([f"index={got}" if a.format == "records" else str(got)],
          a.trace_path)
    return 0


def _cmd_liar(a) -> int:
    report = run_liar(a.fuel)
    _emit(liar_report_lines(report), a.trace_path)
    return 1 if report.verdict == "ContradictionValue" else 0


def _parse_corpus_line(line: str) -> Tuple[str, int, int]:
    parts = line.split()
    opts = {"samples": 100, "cap": 12}
    for part in parts[1:]:
        key, _, val = part.partition("=")
        if key not in opts:
            raise _Usage(f"unknown sampling key {key!r}")
        try:
            opts[key] = int(val)
        except ValueError:
            opts[key] = -1
        if opts[key] < 0:
            raise _Usage(f"{key}= needs a non-negative integer, got {val!r}")
    return parts[0], opts["samples"], opts["cap"]


def _cmd_corpus(a) -> int:
    corpus_path = _need(a.term, "--term", "corpus")
    base = os.path.dirname(os.path.abspath(corpus_path))
    lines: List[str] = []
    totals = {"terms": 0, "args": 0, "mismatches": 0,
              "descent_violations": 0, "fuel_exhausted": 0}
    max_steps = 0
    max_cx: Ord = ()

    def put(key: str, label: str, fields: List[str]) -> None:
        # records: the key line, then one line per field; text: one line
        if a.format == "records":
            lines.extend([key] + fields)
        else:
            lines.append(label + " " + " ".join(fields))

    for raw in _read(corpus_path).splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rel, samples, cap = _parse_corpus_line(stripped)
        t = parse_term(_read(os.path.join(base, rel)))
        dom, _ = typecheck(t)
        rng = random.Random(f"{a.seed}:{rel}")
        args = [random_value(rng, dom, cap) for _ in range(samples)]
        entries = objectivity_check(t, args, a.fuel).entries
        mismatches = sum(e.kind == "mismatch" for e in entries)
        fuel_out = sum(e.kind == "fuel" for e in entries)
        desc = sum(isinstance(e.outcome, DescentViolation) for e in entries)
        term_steps = max((e.steps for e in entries), default=0)
        # the machine checks that the measure falls at every step, so each
        # run's first configuration, [t], is its most complex one
        term_cx: Ord = frame_cost(t) if samples else ()
        totals["terms"] += 1
        totals["args"] += samples
        totals["mismatches"] += mismatches
        totals["descent_violations"] += desc
        totals["fuel_exhausted"] += fuel_out
        max_steps = max(max_steps, term_steps)
        if ord_cmp(max_cx, term_cx) == LESS:
            max_cx = term_cx
        put(f"term={rel}", f"{rel}:",
            [f"samples={samples}", f"mismatches={mismatches}",
             f"descent_violations={desc}", f"fuel_exhausted={fuel_out}",
             f"max_steps={term_steps}",
             f"max_complexity={ord_brackets(term_cx)}"])
    ok = not (totals["mismatches"] or totals["descent_violations"]
              or totals["fuel_exhausted"])
    put("kind=corpus-summary", "summary:",
        [f"{k}={v}" for k, v in totals.items()]
        + [f"max_steps={max_steps}", f"max_complexity={ord_brackets(max_cx)}",
           f"ok={ok}"])
    _emit(lines, a.trace_path)
    return 0 if ok else 1


# each subcommand's handler, help text, and the flags the handler reads
_SUBCOMMANDS = {
    "check": (_cmd_check, "print the domain and codomain of a term",
              "term format trace"),
    "eval": (_cmd_eval, "evaluate a term at an argument",
             "term arg mode fuel format trace"),
    "quote": (_cmd_quote, "print a term's code and its number",
              "term format trace"),
    "run": (_cmd_run, "run the machine and emit the step trace",
            "term arg fuel trace"),
    "cci": (_cmd_cci, "run or audit a complexity-controlled iteration",
            "term arg fuel audit seed format trace"),
    "choice": (_cmd_choice, "synthesize a middle inverse and check its law",
               "term arg fuel audit seed format trace"),
    "mu": (_cmd_mu, "minimize a predicate at an argument",
           "term arg fuel format trace"),
    "liar": (_cmd_liar, "evaluate the antidiagonal at its own index",
             "fuel trace"),
    "corpus": (_cmd_corpus, "sweep a corpus file against the structural oracle",
               "term fuel seed format trace"),
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        for flag in ("fuel", "audit"):
            n = getattr(args, flag, None)
            if n is not None and n < 0:
                raise _Usage(f"--{flag} must be non-negative, got {n}")
        return _SUBCOMMANDS[args.subcommand][0](args)
    except _Usage as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (_Refused, ParseError, NumeralTooLong, TypeMismatch, IllTyped,
            NotAPredicateCode, UnsupportedConstructor) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EvalError as e:
        print(f"evaluation failed: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        # the parser, printer and evaluators recurse on the host stack
        print("error: term nests too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
