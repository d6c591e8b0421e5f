"""Command line behavior: output shapes, exit codes, determinism."""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from prcalc import term
from prcalc.cli import main
from prcalc.machine import apply_cost
from prcalc.partial import gcd_state
from prcalc.surface import parse_term, print_term, print_value
from prcalc.term import NAT, Comp, Id, NatV, PairV

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def term_path(name):
    return str(CORPUS / name)


class TestEval:
    def test_structural_addition(self):
        code, out, _ = run_cli(["eval", "--term", term_path("add.pr"),
                                "--arg", "(2,3)", "--mode", "structural"])
        assert (code, out) == (0, "5\n")

    def test_fuel_exhaustion_exit_and_message(self):
        code, out, _ = run_cli(["eval", "--mode", "iterative", "--fuel", "3",
                                "--term", term_path("add.pr"),
                                "--arg", "(0,1000000)"])
        assert code == 1
        assert out == "fuel exhausted at step 3\n"

    def test_iterative_matches_structural(self):
        argv = ["eval", "--term", term_path("mul.pr"), "--arg", "(7,6)"]
        s = run_cli(argv + ["--mode", "structural"])
        i = run_cli(argv + ["--mode", "iterative"])
        assert s == i == (0, "42\n", "")

    def test_argument_outside_the_domain_exits_two_in_both_modes(self):
        argv = ["eval", "--term", term_path("succ.pr"), "--arg", "(1,2)"]
        for mode in ("structural", "iterative"):
            got = run_cli(argv + ["--mode", mode])
            assert got == (2, "", "error: argument does not fit Nat\n")

    def test_unit_value_literal(self):
        code, out, _ = run_cli(["eval", "--term", term_path("bang_nat.pr"),
                                "--arg", "7"])
        assert (code, out) == (0, "()\n")

    def test_nested_pair_literal(self):
        from prcalc.surface import parse_value
        assert parse_value("(2,(3,4))") == PairV(NatV(2),
                                                 PairV(NatV(3), NatV(4)))

    def test_rejected_restriction_exits_one(self, tmp_path):
        from prcalc.gen import nat_const
        from prcalc.surface import print_term
        from prcalc.term import Abstr, Comp, Id, NAT, Pair, leq

        three = Abstr(NAT, Comp(leq, Pair(Id(NAT), nat_const(2, NAT))))
        from prcalc.term import Restrict
        p = tmp_path / "into3.pr"
        p.write_text(print_term(Restrict(Id(NAT), three)) + "\n")
        for mode in ("structural", "iterative"):
            code, _, err = run_cli(["eval", "--term", str(p),
                                    "--arg", "9", "--mode", mode])
            assert code == 1


class TestCheckQuote:
    def test_check_prints_typing(self):
        code, out, _ = run_cli(["check", "--term", term_path("add.pr")])
        assert (code, out) == (0, "(x N N) -> N\n")

    def test_quote_round_trips(self):
        code, out, _ = run_cli(["quote", "--term", term_path("succ.pr")])
        assert code == 0
        printed, number = out.splitlines()
        assert parse_term(printed) is not None
        assert int(number) >= 0

    def test_records_format(self):
        code, out, _ = run_cli(["quote", "--term", term_path("succ.pr"),
                                "--format", "records"])
        assert code == 0
        assert out.startswith("code=succ\nnum=")


class TestRun:
    def test_trace_then_outcome(self, tmp_path):
        dest = tmp_path / "trace.txt"
        code, out, _ = run_cli(["run", "--term", term_path("succ.pr"),
                                "--arg", "4", "--trace", str(dest)])
        assert code == 0
        assert "step=0" in out and "value=5" in out
        assert dest.read_text() == out


@pytest.fixture
def antidiagonal_files(tmp_path):
    """The antidiagonal as a one-line term file, and its own index."""
    from prcalc.diagonal import antidiagonal_index, build_antidiagonal
    from prcalc.surface import print_term
    p = tmp_path / "antidiagonal.pr"
    p.write_text(print_term(build_antidiagonal()) + "\n")
    return str(p), str(antidiagonal_index())


class TestDeepReflection:
    # at its own index the antidiagonal regresses about fuel/15 reflected
    # levels deep; the term is one line, so no exit 2 for deep input
    def test_eval_iterative_reports_nested_exhaustion(self,
                                                      antidiagonal_files):
        term, arg = antidiagonal_files
        code, out, err = run_cli(["eval", "--mode", "iterative", "--fuel",
                                  "20000", "--term", term, "--arg", arg])
        assert (code, out, err) == (1, "nested fuel exhausted at step 9\n",
                                    "")

    def test_run_reports_nested_exhaustion(self, antidiagonal_files):
        term, arg = antidiagonal_files
        code, out, err = run_cli(["run", "--fuel", "20000", "--term", term,
                                  "--arg", arg])
        lines = out.splitlines()
        assert (code, err) == (1, "")
        assert lines[-2:] == ["outcome=NestedFuelExhausted", "step=9"]
        assert [ln.split()[0] for ln in lines[:-2]] == \
            [f"step={i}" for i in range(10)]


class TestCCI:
    def test_gcd_instance(self):
        start = print_value(gcd_state(12, 18))
        code, out, _ = run_cli(["cci", "--term", term_path("gcd.cci"),
                                "--arg", start])
        assert code == 0
        assert out.startswith("((6,(0,0)),")

    def test_parsed_instance_takes_the_mod_cycle_host_row(self, monkeypatch):
        # the file parses to gcd_cci()'s own nodes, so each a mod b is one
        # host row, not an O(a) tree walk
        seen = []
        row = term._HOST[term.mod_cycle]

        def counting(v):
            seen.append(v)
            return row(v)

        monkeypatch.setitem(term._HOST, term.mod_cycle, counting)
        code, out, _ = run_cli(["cci", "--term", term_path("gcd.cci"),
                                "--arg", print_value(gcd_state(9999, 7777))])
        assert (code, out) == (0, "((1111,(0,0)), 32)\n")
        # 9999 mod 7777 is the first: ((r, k), a) = ((0, 7777), 9999)
        assert seen[0] == PairV(PairV(NatV(0), NatV(7777)), NatV(9999))

    def test_audit(self):
        code, out, _ = run_cli(["cci", "--term", term_path("gcd.cci"),
                                "--audit", "4", "--seed", "2"])
        assert code == 0
        assert out.rstrip().endswith("audit_ok=True")

    def test_audit_zero_checks_no_samples(self):
        code, out, _ = run_cli(["cci", "--term", term_path("gcd.cci"),
                                "--audit", "0"])
        assert (code, out) == (0, "audit_ok=True\n")

    def test_requires_arg_or_audit(self):
        code, _, err = run_cli(["cci", "--term", term_path("gcd.cci")])
        assert code == 2
        assert "requires" in err

    def test_audit_is_the_recorded_one(self):
        code, out, _ = run_cli(["cci", "--term", term_path("gcd.cci"),
                                "--audit", "40", "--seed", "0",
                                "--format", "records"])
        recorded = ROOT / "tests" / "data" / "cci_gcd_audit40_seed0_records.txt"
        assert (code, out) == (0, recorded.read_text())

    # an identity step under the positive constant complexity (1), and a
    # successor step under the zero complexity
    DESC = ("(cci N (comp succ (comp succ (comp succ (comp succ "
            "(comp (zero N) (bang N)))))) (id N))")
    STAT = "(cci N (comp (zero N) (bang N)) succ)"

    @pytest.mark.parametrize("fmt, want", [
        ("text", "fuel exhausted at step 3\n"),
        ("records", "outcome=FuelExhausted\nstep=3\n"),
    ], ids=["text", "records"])
    def test_fuel_exhaustion(self, fmt, want):
        code, out, _ = run_cli(["cci", "--term", term_path("gcd.cci"),
                                "--arg", print_value(gcd_state(12, 18)),
                                "--fuel", "3", "--format", fmt])
        assert (code, out) == (1, want)

    @pytest.mark.parametrize("src, fmt, want", [
        (DESC, "text", "descent violation at step=0 before=[1] after=[1]\n"),
        (DESC, "records",
         "outcome=DescentViolation\nstep=0 before=[1] after=[1]\n"),
        (STAT, "text", "stationarity violation at step 0\n"),
        (STAT, "records", "outcome=StatViolation\nstep=0\n"),
    ], ids=["desc-text", "desc-records", "stat-text", "stat-records"])
    def test_premise_violations(self, tmp_path, src, fmt, want):
        p = tmp_path / "bad.cci"
        p.write_text(src + "\n")
        code, out, _ = run_cli(["cci", "--term", str(p), "--arg", "4",
                                "--format", fmt])
        assert (code, out) == (1, want)


class TestChoice:
    def test_structural_witness_and_law(self):
        code, out, _ = run_cli(["choice", "--term", term_path("succ.pr")])
        assert code == 0
        witness, law = out.splitlines()
        assert parse_term(witness) is not None
        assert law == "law 200/200"

    def test_audit_zero_checks_no_samples(self):
        code, out, _ = run_cli(["choice", "--term", term_path("succ.pr"),
                                "--audit", "0"])
        assert code == 0
        assert out.splitlines()[1] == "law 0/0"

    def test_search_inverse_at_point(self):
        code, out, _ = run_cli(["choice", "--term", term_path("succ.pr"),
                                "--arg", "5"])
        assert (code, out) == (0, "4\n")


class TestMu:
    def test_least_witness(self, tmp_path):
        from prcalc.surface import print_term
        from prcalc.term import Comp, eq0, monus
        p = tmp_path / "geq.pr"
        p.write_text(print_term(Comp(eq0, monus)) + "\n")
        code, out, _ = run_cli(["mu", "--term", str(p), "--arg", "3"])
        assert (code, out) == (0, "3\n")

    def test_never_true_exits_one(self, tmp_path):
        from prcalc.gen import nat_const
        from prcalc.surface import print_term
        from prcalc.term import Comp, NN, eq0, one_n
        p = tmp_path / "never.pr"
        p.write_text(print_term(Comp(eq0, nat_const(1, NN))) + "\n")
        code, out, _ = run_cli(["mu", "--term", str(p), "--arg", "0",
                                "--fuel", "25"])
        assert code == 1
        assert "no witness below 25" in out


class TestLiar:
    def test_probe_writes_report(self, tmp_path):
        dest = tmp_path / "liar.txt"
        code, out, _ = run_cli(["liar", "--fuel", "200",
                                "--trace", str(dest)])
        assert code == 0
        assert out.startswith("kind=liar-report\n")
        assert dest.read_text() == out


class TestCorpus:
    def test_sweep_is_clean_and_deterministic(self, tmp_path):
        sub = tmp_path / "mini.txt"
        for name in ("succ.pr", "add.pr", "eq0.pr"):
            (tmp_path / name).write_text((CORPUS / name).read_text())
        sub.write_text("succ.pr samples=20 cap=9\n"
                       "add.pr samples=20 cap=9\n"
                       "# comment\n"
                       "eq0.pr samples=20\n")
        argv = ["corpus", "--term", str(sub), "--seed", "5",
                "--format", "records"]
        a = run_cli(argv)
        b = run_cli(argv)
        assert a == b
        code, out, _ = a
        assert code == 0
        assert "ok=True" in out
        assert "max_steps=" in out and "max_complexity=" in out

    def test_summary_line_matches_readme(self):
        readme = (ROOT / "README.md").read_text().splitlines()
        want = [line for line in readme if line.startswith("summary: ")]
        assert len(want) == 1
        code, out, _ = run_cli(["corpus", "--term", str(CORPUS / "corpus.txt"),
                                "--seed", "0"])
        assert code == 0
        assert out.splitlines()[-1] == want[0]

    def test_whole_sweep_is_the_recorded_one_with_caches_off(self,
                                                              caches_off):
        # every record of the seed-0 sweep, recorded before terms were
        # interned, and the summary the README shows
        code, out, _ = run_cli(["corpus", "--term", str(CORPUS / "corpus.txt"),
                                "--seed", "0", "--format", "records"])
        assert code == 0
        recorded = ROOT / "tests" / "data" / "corpus_seed0_records.txt"
        assert out == recorded.read_text()
        summary = out.split("kind=corpus-summary\n")[1].split()
        assert "summary: " + " ".join(summary) in (ROOT / "README.md").read_text()

    def test_machine_descent_violations_are_counted(self, tmp_path,
                                                    misprice):
        # with every code priced at zero, each run's first step (an
        # iteration unfolding into a pending frame) fails to descend
        (tmp_path / "add.pr").write_text((CORPUS / "add.pr").read_text())
        listing = tmp_path / "one.txt"
        listing.write_text("add.pr samples=7\n")
        misprice(lambda c: ())
        code, out, _ = run_cli(["corpus", "--term", str(listing),
                                "--format", "records"])
        assert code == 1
        assert "descent_violations=7\n" in out
        assert out.endswith("ok=False\n")

    def test_mispriced_sweep_stores_only_real_costs(self, tmp_path, misprice,
                                                    monkeypatch):
        # a chain of 29 identities is a term no other test builds, so the
        # sweep is the first to ask for its cost
        chain = Id(NAT)
        for _ in range(28):
            chain = Comp(Id(NAT), chain)
        (tmp_path / "chain.pr").write_text(print_term(chain) + "\n")
        listing = tmp_path / "one.txt"
        listing.write_text("chain.pr samples=3\n")
        misprice(lambda c: ())
        code, out, _ = run_cli(["corpus", "--term", str(listing),
                                "--format", "records"])
        assert code == 1
        assert "descent_violations=3\n" in out
        monkeypatch.undo()
        # 28 compositions at two each, plus the frame's unit
        assert apply_cost(chain) == (57,)


@pytest.fixture
def digit_limit():
    """Pin Python's limit on decimal conversion of ints at its default."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no decimal conversion limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


class TestUsageErrors:
    def test_missing_term_flag(self):
        code, _, err = run_cli(["check"])
        assert code == 2
        assert "requires" in err

    def test_unreadable_file(self):
        code, _, err = run_cli(["check", "--term", "/nonexistent/x.pr"])
        assert code == 2

    def test_deeply_nested_term(self, tmp_path):
        p = tmp_path / "deep.pr"
        p.write_text("(comp succ " * 3000 + "succ" + ")" * 3000 + "\n")
        code, out, err = run_cli(["check", "--term", str(p)])
        assert (code, out, err) == (2, "", "error: term nests too deeply\n")

    def test_deeply_nested_arg(self):
        # a value, not a term: the message names what nests too deeply
        deep = "(" * 5000 + "0" + ",0)" * 5000
        for argv in (["eval", "--term", term_path("succ.pr")],
                     ["run", "--term", term_path("succ.pr")],
                     ["mu", "--term", term_path("eq0.pr")],
                     ["cci", "--term", term_path("gcd.cci")],
                     ["choice", "--term", term_path("succ.pr")]):
            assert run_cli(argv + ["--arg", deep]) == (
                2, "", "error: value nests too deeply\n"), argv[0]

    @pytest.mark.parametrize("argv", [
        ["check"], ["quote"], ["eval", "--arg", "1"], ["run", "--arg", "1"],
        ["cci", "--arg", "(1,1)"], ["choice"], ["mu", "--arg", "1"],
        ["corpus"],
    ], ids=lambda argv: argv[0])
    def test_term_file_not_utf8(self, tmp_path, argv):
        p = tmp_path / "bad.pr"
        p.write_bytes(b"\xff\xfesucc\n")
        assert run_cli(argv + ["--term", str(p)]) == (
            2, "", f"error: {p} is not UTF-8 text: byte 0xff at offset 0\n")

    def test_corpus_member_not_utf8(self, tmp_path):
        (tmp_path / "succ.pr").write_text((CORPUS / "succ.pr").read_text())
        (tmp_path / "bad.pr").write_bytes(b"(comp succ \xe9)\n")
        listing = tmp_path / "two.txt"
        listing.write_text("succ.pr samples=2\nbad.pr\n")
        assert run_cli(["corpus", "--term", str(listing)]) == (
            2, "", f"error: {tmp_path / 'bad.pr'} is not UTF-8 text: "
                   f"byte 0xe9 at offset 11\n")

    def test_numeral_past_the_digit_limit(self, digit_limit):
        code, out, err = run_cli(["eval", "--term", term_path("succ.pr"),
                                  "--arg", "9" * 5000])
        assert (code, out, err) == (
            2, "", "error: at offset 0: numeral has 5000 digits, "
                   "past the limit of 4300\n")

    def test_quote_past_the_digit_limit(self, tmp_path, digit_limit):
        chain = "succ"
        for _ in range(12):
            chain = f"(pair {chain} succ)"
        p = tmp_path / "chain.pr"
        p.write_text(chain + "\n")
        code, out, err = run_cli(["quote", "--term", str(p)])
        assert (code, out, err) == (
            2, "", "error: a 31725-bit number has more than 4300 "
                   "decimal digits\n")

    def test_malformed_term_file(self, tmp_path):
        p = tmp_path / "bad.pr"
        p.write_text("(comp succ\n")
        code, _, err = run_cli(["check", "--term", str(p)])
        assert code == 2

    @pytest.mark.parametrize("argv, msg", [
        (["cci", "--term", term_path("gcd.cci"), "--audit", "-2"],
         "--audit must be non-negative, got -2"),
        (["choice", "--term", term_path("succ.pr"), "--audit", "-1"],
         "--audit must be non-negative, got -1"),
        (["mu", "--term", term_path("succ.pr"), "--arg", "0", "--fuel", "-1"],
         "--fuel must be non-negative, got -1"),
    ], ids=["cci-audit", "choice-audit", "mu-fuel"])
    def test_negative_counts(self, argv, msg):
        assert run_cli(argv) == (2, "", f"usage error: {msg}\n")

    @pytest.mark.parametrize("opt", ["samples=abc", "samples=-3", "cap=x",
                                     "cap=-1"])
    def test_bad_corpus_sampling_value(self, tmp_path, opt):
        (tmp_path / "succ.pr").write_text((CORPUS / "succ.pr").read_text())
        listing = tmp_path / "one.txt"
        listing.write_text(f"succ.pr {opt}\n")
        key, _, val = opt.partition("=")
        assert run_cli(["corpus", "--term", str(listing)]) == (
            2, "", f"usage error: {key}= needs a non-negative integer, "
                   f"got {val!r}\n")

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["eval", "--bogus", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sub, flag", [
        (sub, flag) for sub, flags in [
            ("check", "arg mode fuel audit seed"),
            ("quote", "arg mode fuel audit seed"),
            ("eval", "audit seed"),
            ("run", "mode audit seed format"),
            ("cci", "mode"),
            ("choice", "mode"),
            ("mu", "mode audit seed"),
            ("liar", "term arg mode audit seed format"),
            ("corpus", "arg mode audit"),
        ] for flag in flags.split()])
    def test_flag_the_subcommand_does_not_read(self, sub, flag, capsys):
        value = {"term": term_path("succ.pr"), "arg": "3", "mode": "iterative",
                 "format": "records"}.get(flag, "1")
        with pytest.raises(SystemExit) as exc:
            main([sub, f"--{flag}", value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 2
