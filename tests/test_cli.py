"""CLI behavior: output text, exit codes, stdin handling."""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import word_table
from indetstr import cli, growth_trend
from indetstr.bench import CSV_HEADER
from test_inference import GOLDEN_TRACE_50210


def run(*argv):
    return cli.main(list(argv))


class TestPrefixTable:
    def test_regular(self, capsys):
        assert run("pt", "a c a g a c a t") == 0
        assert capsys.readouterr().out == "8 0 1 0 3 0 1 0\n"

    def test_indeterminate(self, capsys):
        assert run("pt", "{a,b} {a,c} c {a,b} b c {a,c} b") == 0
        assert capsys.readouterr().out == "8 2 0 1 4 0 1 1\n"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a b a {a,b} c\n"))
        assert run("pt", "-") == 0
        assert capsys.readouterr().out == "5 0 2 1 0\n"

    def test_bad_token_is_usage_error(self, capsys):
        assert run("pt", "a ? b") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "position 2" in err


class TestInfer:
    def test_plain(self, capsys):
        assert run("infer", "5 0 2 1 0") == 0
        assert capsys.readouterr().out == "a b a {a,b} c\n"

    def test_trace(self, capsys):
        assert run("infer", "5 0 2 1 0", "--trace") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == GOLDEN_TRACE_50210 + ["a b a {a,b} c"]

    def test_infeasible(self, capsys):
        assert run("infer", "5 0 2 3 0") == 1
        assert "y[4]" in capsys.readouterr().err

    def test_regular_at_scale(self, capsys):
        # regular arrays whose positive edges number about 2*10^8 each
        for word in ("a" * 20000, "aaaab" * 4000):
            assert run("infer", " ".join(map(str, word_table(word)))) == 0
            assert capsys.readouterr().out == " ".join(word) + "\n"


class TestCheck:
    def test_feasible(self, capsys):
        assert run("check", "5 0 2 1 0") == 0
        assert capsys.readouterr().out == "feasible\n"

    def test_infeasible(self, capsys):
        assert run("check", "5 0 2 3 0") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "y[4] = 3" in err

    def test_overlong_decimal_is_usage_error(self, capsys, int_digit_limit):
        assert run("check", "1" * (int_digit_limit + 1)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad token") and "position 1" in err
        assert len(err) < 300  # the token is clipped, not quoted whole


class TestClippedValues:
    """A long value in a feasibility or letter error is shown by its first
    40 characters and its length, not whole."""

    @pytest.mark.parametrize("argv, code, err", [
        (["check", "1" * 4000], 1,
         f"error: y[1] = {'1' * 40}... (4000 characters) but must equal the length 1\n"),
        (["check", f"3 {'9' * 4000} 0"], 1,
         f"error: y[2] = {'9' * 40}... (4000 characters) out of range 0..2\n"),
        (["pt", f"{{{'1' * 4000},{'1' * 4000}}}"], 2,
         f"error: bad token {'{' + '1' * 39!r}... (8003 characters) at position 1: "
         f"duplicate symbol {'1' * 40}... (4000 characters) in letter\n"),
    ], ids=["length", "range", "letter"])
    def test_stderr_is_short(self, capsys, int_digit_limit, argv, code, err):
        assert run(*argv) == code
        assert capsys.readouterr().err == err
        assert len(err) < 300


class TestVerify:
    def test_pass(self, capsys):
        assert run("verify", "a b a {a,b} c", "5 0 2 1 0") == 0
        assert capsys.readouterr().out == "pass\n"

    def test_fail_condition_b(self, capsys):
        assert run("verify", "a a", "2 0") == 1
        assert capsys.readouterr().out == "fail at i=2 condition (b)\n"

    def test_fail_condition_a(self, capsys):
        assert run("verify", "a b", "2 1") == 1
        assert capsys.readouterr().out == "fail at i=2 condition (a)\n"

    def test_oracle_confirms(self, capsys):
        assert run("verify", "a b a {a,b} c", "5 0 2 1 0", "--oracle") == 0
        assert capsys.readouterr().out == (
            "pass\nlex-least confirmed (alphabet size 3)\n"
        )

    def test_oracle_differs(self, capsys):
        # a valid realization that is not the least one
        assert run("verify", "a b {a,c} b c", "5 0 3 0 0", "--oracle") == 1
        assert capsys.readouterr().out == (
            "pass\nlex-least differs: a b {a,b} b b (alphabet size 2)\n"
        )

    def test_stdin_feeds_one_argument_only(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a b a {a,b} c\n"))
        assert run("verify", "-", "-") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: stdin can feed only one argument\n"

    def test_array_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("5 0 2 1 0\n"))
        assert run("verify", "a b a {a,b} c", "-") == 0
        assert capsys.readouterr().out == "pass\n"

    def test_oracle_skipped_beyond_budget(self, capsys):
        assert run("verify", "a b b b b b", "6 0 0 0 0 0", "--oracle") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "pass"
        assert out[1].startswith("oracle skipped")


class TestGraph:
    def test_json_positive(self, capsys):
        assert run("graph", "8 2 0 1 4 0 1 1", "--format", "json", "--sign", "positive") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 8
        assert len(data["pos"]) == 9
        assert "neg" not in data

    def test_dot_default_both(self, capsys):
        assert run("graph", "5 0 2 1 0") == 0
        out = capsys.readouterr().out
        assert out.startswith("graph ")
        assert "1 -- 3;" in out
        assert "3 -- 5 [style=dashed];" in out

    def test_infeasible(self, capsys):
        assert run("graph", "5 0 2 3 0") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "y[4] = 3" in err

    def test_bad_format_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("graph", "5 0 2 1 0", "--format", "xml")
        assert exc.value.code == 2


class TestRegular:
    def test_regular(self, capsys):
        assert run("regular", "8 0 1 0 3 0 1 0") == 0
        assert capsys.readouterr().out == "regular\n"

    def test_not_regular(self, capsys):
        assert run("regular", "5 0 2 1 0") == 0
        assert capsys.readouterr().out == "indeterminate-only (components: 2)\n"
        # level 1 of the range union holds one class, so it stops there
        assert run("regular", "5 0 3 2 0") == 0
        assert capsys.readouterr().out == "indeterminate-only (components: 1)\n"

    def test_infeasible(self, capsys):
        assert run("regular", "5 0 2 3 0") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "y[4] = 3" in err

    # 20,000 positions: the positive edges number about 2*10^8 for a^n and
    # 4*10^7 for the periodic word, so these pass only when no edge is built
    def test_scale_unary(self, capsys):
        assert run("regular", " ".join(map(str, word_table("a" * 20000)))) == 0
        assert capsys.readouterr().out == "regular\n"

    def test_scale_period_five(self, capsys):
        # (aaaab)^k: a full-length box at each period start, a^(4-j) at
        # offset j = 1..3 of a period and 0 at each b
        def table(n):
            return [
                n - i if i % 5 == 0 else min(4 - i % 5, n - i)
                for i in range(n)
            ]

        assert run("pt", " ".join(("aaaab" * 5)[:23])) == 0
        assert capsys.readouterr().out == " ".join(map(str, table(23))) + "\n"
        assert table(20000) == list(word_table("aaaab" * 4000))
        assert run("regular", " ".join(map(str, table(20000)))) == 0
        assert capsys.readouterr().out == "regular\n"


class TestGen:
    def test_deterministic_valid(self, capsys):
        from indetstr import validate_feasible

        assert run("gen", "--length", "6", "--count", "4", "--seed", "7") == 0
        first = capsys.readouterr().out
        assert run("gen", "--length", "6", "--count", "4", "--seed", "7") == 0
        assert capsys.readouterr().out == first
        rows = first.splitlines()
        assert len(rows) == 4
        for row in rows:
            y = tuple(int(t) for t in row.split())
            assert validate_feasible(y) == y and y[0] == 6

    def test_bad_length_or_count(self, capsys):
        assert run("gen", "--length", "5", "--count", "-1") == 1
        assert capsys.readouterr() == ("", "error: count must be >= 0, got -1\n")
        assert run("gen", "--length", "0") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert run("gen", "--length", "5", "--count", "0") == 0
        assert capsys.readouterr() == ("", "")


class TestBench:
    def test_stdout(self, capsys):
        assert run("bench", "--lengths", "4,8,16", "--trials", "2", "--seed", "3") == 0
        out, err = capsys.readouterr()
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert err.startswith("log-log slope: ") and err.endswith("\n")
        assert growth_trend(out) == pytest.approx(float(err.split(":")[1]), abs=1e-3)

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        assert run("bench", "--lengths", "3,5,7", "--trials", "1", "--out", str(out)) == 0
        stdout, err = capsys.readouterr()
        assert stdout == ""
        text = out.read_text(encoding="ascii")
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3
        assert err.startswith("log-log slope: ")
        assert growth_trend(text) == pytest.approx(float(err.split(":")[1]), abs=1e-3)

    def test_unwritable_out_fails_before_timing(self, capsys, monkeypatch, tmp_path):
        def no_timing(cfg):
            raise AssertionError("timing started before --out was opened")

        monkeypatch.setattr("indetstr.bench.run_bench", no_timing)
        out = tmp_path / "missing" / "r.csv"
        assert run("bench", "--lengths", "3,5,7", "--trials", "1", "--out", str(out)) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error:")

    def test_no_slope_below_three_lengths(self, capsys):
        assert run("bench", "--lengths", "4,8", "--trials", "1") == 0
        out, err = capsys.readouterr()
        assert out.startswith(CSV_HEADER + "\n")
        assert err == ""

    def test_bad_lengths(self, capsys):
        assert run("bench", "--lengths", "10:5:1") == 1
        assert "bad lengths" in capsys.readouterr().err


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_parser_built_once(self, capsys, monkeypatch):
        # one build is 9 parsers (the top level and 8 subcommands)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run("infer", "5 0 2 1 0") == 0
        assert run("regular", "4 0 0 0") == 0
        assert len(built) <= 9

    def test_module_entry_point(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        done = subprocess.run(
            [sys.executable, "-m", "indetstr.cli", "infer", "5 0 2 1 0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "a b a {a,b} c\n", "")

    def test_import_path_stays_lean(self):
        # -S: site preloads nothing, so the modules listed are the CLI's own
        child = (
            "import contextlib, io, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import indetstr.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = indetstr.cli.main(['infer', '1'])\n"
            "assert (code, out.getvalue()) == (0, 'a\\n')\n"
            "print(*sorted({'dataclasses', 'inspect', 'statistics'} & sys.modules.keys()))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", child, src],
            capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")


def test_round_trip_through_text(capsys):
    assert run("infer", "8 2 0 1 4 0 1 1") == 0
    text = capsys.readouterr().out.strip()
    assert run("pt", text) == 0
    assert capsys.readouterr().out == "8 2 0 1 4 0 1 1\n"
