"""End-to-end CLI: JSON contracts, plain mode, exit codes."""

import argparse
import json
import multiprocessing
import os
import random
import re

import pytest

from conftest import deep_only
from test_cli_golden import CASES as GOLDEN_CASES
from test_cli_golden import _long_word, _text
from heckeord import braid3, cli, normalform, oracle, orderings, suites
from heckeord.cli import main
from heckeord.cone import ReductionStuck, certify_sign, decide_sign
from heckeord.context import group_context
from heckeord.words import (
    GEN_A,
    GEN_B,
    RewriteLimitError,
    concat,
    format_word,
    gen_power,
    letter_length,
    parse_word,
    word_from_syllables,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


class TestSign:
    def test_negative_handle_word(self, capsys):
        code, doc = run_json(capsys, "sign", "--n", "2", "a b a^-1")
        assert code == 0
        assert doc["verdict"] == "negative"
        assert doc["witness"] == "a^-1 b^-1"
        assert doc["oracle_checked"] is True

    def test_identity_word(self, capsys):
        code, doc = run_json(capsys, "sign", "--n", "3", "b a^3 b a^-1")
        assert code == 0
        assert doc["verdict"] == "identity"
        assert doc["witness"] == "1"

    def test_plain_mode(self, capsys):
        code, out, _ = run(capsys, "sign", "--plain", "b^-2")
        assert code == 0
        assert "is negative" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestSignCheckFails:
    """sign handed a wrong witness for the true verdict, with the true
    interior cuts: the chain's last link, to the wrong witness's end,
    fails, the JSON says "oracle_checked": false, --plain says [oracle
    MISMATCH], and the exit status is 1."""

    LONG = _text(_long_word(63 + 320, 320))  # the golden sign case at n = 63 on 320 syllables
    CASES = [
        (n, text) for n in (1, 2, 7, 31, 63) for text in ("a b a^-1", "b^-2 a^3 b", "a^-1 b^2 a^-2 b^-1")
    ]

    @staticmethod
    def spoilers(n):
        """Times b; times delta = a^q (rho negated, phi shifted); times
        delta^2 (rho alike, only phi differs); times a commutator (phi
        alike, only rho differs, so the compare reaches the matrices)."""
        q = group_context(n).q
        return {
            "b": ((GEN_B, 1),),
            "delta": gen_power(GEN_A, q),
            "delta-squared": gen_power(GEN_A, 2 * q),
            "commutator": parse_word("a b a^-1 b^-1"),
        }

    @pytest.mark.parametrize("n, text", CASES + [pytest.param(63, LONG, id="63-long")])
    @pytest.mark.parametrize("kind", ["b", "delta", "delta-squared", "commutator"])
    def test_a_wrong_witness_is_refused(self, capsys, monkeypatch, n, text, kind):
        ctx, word = group_context(n), parse_word(text)
        (truth, cuts), extra = certify_sign(word, ctx, oracle.link_syllables(ctx)), self.spoilers(n)[kind]
        spoilt = concat(truth.witness, extra)
        if text == self.LONG:
            assert ["sign", "--n", "63", text] in GOLDEN_CASES
            # The whole-word folds of w and of the wrong witness end at other
            # widths, so oracle_equal repacks one state before it fails;
            # sign checks the long word link by link, and the last link fails.
            wrong = oracle.oracle_state(spoilt, ctx)
            assert oracle.oracle_state(word, ctx)[1][2] != wrong[1][2]
            assert cuts
        monkeypatch.setattr(cli, "certify_sign", lambda w, c, cut: (truth._replace(witness=spoilt), cuts))
        code, doc = run_json(capsys, "sign", "--n", str(n), text)
        assert (code, doc["oracle_checked"], doc["verdict"]) == (1, False, truth.verdict.value)
        assert doc["witness"] == format_word(spoilt)
        code, out, _ = run(capsys, "sign", "--n", str(n), "--plain", text)
        assert code == 1 and out.endswith("[oracle MISMATCH]\n"), out


@deep_only
class TestLongSign:
    """sign on long random words checks its witness link by link (at
    n = 63, 1,000 syllables make about fifty links), and the whole-word
    check agrees: the answer is checked, and checked right."""

    @pytest.mark.parametrize("n", [7, 31, 63])
    def test_long_random_words(self, capsys, n):
        ctx, rng = group_context(n), random.Random(f"long sign:{n}")
        for length in [rng.randint(1000, 2000) for _ in range(3)] + ([4000] if n == 63 else []):
            text = _text(_long_word(f"long sign:{n}:{rng.random()}", length))
            code, doc = run_json(capsys, "sign", "--n", str(n), text)
            assert (code, doc["oracle_checked"]) == (0, True), (n, length)
            word, witness = parse_word(text), parse_word(doc["witness"])
            assert doc["verdict"] == decide_sign(word, ctx).verdict.value
            assert oracle.oracle_equal(word, witness, ctx), (n, length)


class TestCmp:
    def test_identity_below_least_positive(self, capsys):
        code, doc = run_json(
            capsys, "cmp", "--n", "2", "--order", "dlike", "1", "b^-1"
        )
        assert code == 0
        assert doc["result"] == "less"

    def test_equal_words(self, capsys):
        code, doc = run_json(capsys, "cmp", "--n", "2", "b a^2 b", "a")
        assert code == 0
        assert doc["result"] == "equal"

    def test_conjugated_order(self, capsys):
        code, doc = run_json(
            capsys,
            "cmp", "--n", "2", "--order", "dlike", "--conj", "b a",
            "1", "a^-1 b^-1 a",
        )
        assert code == 0
        assert doc["result"] == "less"  # conjugate of the least positive


class TestNf:
    def test_b_inverse_square(self, capsys):
        code, doc = run_json(capsys, "nf", "--n", "2", "b^-2")
        assert code == 0
        assert doc["prefix"] == "a^2 b a b a^2"
        assert doc["ell"] == -1


class TestOracle:
    def test_central_power(self, capsys):
        code, doc = run_json(capsys, "oracle", "--n", "2", "a^3")
        assert code == 0
        assert doc["identity"] is False
        assert doc["rho_projectively_trivial"] is True
        assert doc["phi"] == 6

    @pytest.mark.parametrize("n, text, identity", [(2, "b a^2 b a^-1", True), (2, "a b^2", False), (1, "b a b a^-1", True)])
    def test_folds_rho_once(self, capsys, monkeypatch, n, text, identity):
        # phi(w) == 0 in each case, so the identity test needs the fold too.
        calls = []
        real_fold = oracle._fold

        def counting(word, ctx):
            calls.append(word)
            return real_fold(word, ctx)

        monkeypatch.setattr(oracle, "_fold", counting)
        code, doc = run_json(capsys, "oracle", "--n", str(n), text)
        assert code == 0
        assert (doc["identity"], doc["phi"]) == (identity, 0)
        assert len(calls) == 1


class TestCtx:
    def test_constants(self, capsys):
        code, doc = run_json(capsys, "ctx", "--n", "2")
        assert code == 0
        assert doc == {"n": 2, "q": 3, "min_poly": [-1, 1], "phi_a": 2, "phi_b": -1}


class TestB3:
    def test_sign(self, capsys):
        code, doc = run_json(capsys, "b3", "sign", "s1 s2^-3")
        assert code == 0
        assert doc["d_positive"] is True

    def test_bridge_sigma(self, capsys):
        code, doc = run_json(capsys, "b3", "bridge", "s1")
        assert code == 0
        assert doc["image"] == "a b"

    def test_bridge_ab(self, capsys):
        code, doc = run_json(capsys, "b3", "bridge", "--alphabet", "ab", "a")
        assert code == 0
        assert doc["image"] == "s1 s2"

    def test_sign_reduces_handles_once(self, capsys, monkeypatch):
        # b3 sign reduces its word once; reading the sign reduces the
        # result again, which then holds no handle, so makes no move.
        text = "s1 s2 s1^-1 s2^-1 s1 s2^2 s1^-2"
        real = braid3.dehornoy_reduce
        words = []

        def recording(word):
            words.append(word)
            return real(word)

        monkeypatch.setattr(braid3, "dehornoy_reduce", recording)
        code, doc = run_json(capsys, "b3", "sign", text)
        assert code == 0
        first, *later = words
        assert first == braid3.parse_sigma(text) and real(first) != first
        assert later and all(real(word) == word for word in later)

    def test_handle_budget_is_a_refusal(self, capsys, monkeypatch):
        # A word that needs more moves than the budget is refused like a
        # word over the letter limit: exit 2, one error line, no output.
        # This word needs 3 moves, so a budget of 3 or more decides it.
        text = "s1 s2 s1^-1 s2^-1 s1 s2^2 s1^-2"
        for cap in range(8):
            monkeypatch.setattr(braid3, "_HANDLE_CAP", cap)
            code, out, err = run(capsys, "b3", "sign", text)
            if cap < 3:
                assert (code, out, err) == (2, "", f"error: handle reduction needs more than {cap} moves\n")
            else:
                assert (code, err) == (0, "") and json.loads(out)["d_positive"] is True

    @deep_only
    def test_long_random_braid_is_refused(self, capsys):
        # 60,000 random letters, freely reduced to 30,308: the reduction
        # passes the budget of 200,000 moves (README).
        rng = random.Random(1)
        letters = [(rng.choice((braid3.S1, braid3.S2)), rng.choice((1, -1))) for _ in range(60_000)]
        word = word_from_syllables(letters)
        assert letter_length(word) == 30_308 and braid3._HANDLE_CAP == 200_000
        code, out, err = run(capsys, "b3", "sign", braid3.format_sigma(word))
        assert (code, out, err) == (2, "", "error: handle reduction needs more than 200000 moves\n")

    def test_cert(self, capsys):
        code, doc = run_json(capsys, "b3", "cert", "b^2")
        assert code == 0
        assert doc["certificate"] == {"source": "U", "target": "V"}

    def test_cert_exceptional(self, capsys):
        code, doc = run_json(capsys, "b3", "cert", "a b")
        assert code == 0
        assert doc["certificate"] is None


class TestConverge:
    def test_default_elements_stabilize(self, capsys):
        code, doc = run_json(capsys, "converge", "--n", "2", "--kmax", "3")
        assert code == 0
        assert [row["element"] for row in doc["rows"]] == ["b^-1", "a", "a b", "a b^2"]
        assert all(row["stabilized_from"] == 1 for row in doc["rows"])
        assert doc["minima"]["distinct"] is True

    def test_elements_file(self, capsys, tmp_path):
        elems = tmp_path / "elems.txt"
        elems.write_text("a\nb^-1\n")
        code, doc = run_json(
            capsys, "converge", "--kmax", "2", "--elems", str(elems)
        )
        assert code == 0
        assert [row["element"] for row in doc["rows"]] == ["a", "b^-1"]

    def test_unstable_row_exits_1(self, capsys, tmp_path):
        elems = tmp_path / "elems.txt"
        elems.write_text("a^-1\n")
        code, doc = run_json(
            capsys, "converge", "--kmax", "2", "--elems", str(elems)
        )
        assert code == 1
        assert doc["rows"][0]["stabilized_from"] is None


class TestSuite:
    def test_trichotomy_small(self, capsys):
        code, doc = run_json(capsys, "suite", "--n", "2", "--max-len", "3")
        assert code == 0
        assert doc["ok"] is True
        assert doc["violations"] == []
        assert doc["total_words"] == 53
        assert "wall_time" in doc

    def test_identities(self, capsys):
        code, doc = run_json(capsys, "suite", "--n", "3", "--kind", "identities")
        assert code == 0
        assert doc["ok"] is True
        assert any(c["name"] == "crossing-expansion" for c in doc["checks"])


class TestCayley:
    def test_json(self, capsys):
        code, doc = run_json(capsys, "cayley", "--n", "2", "--radius", "1",
                             "--format", "json")
        assert code == 0
        assert len(doc["nodes"]) == 5

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "cayley", "--n", "1", "--radius", "2")
        assert code == 0
        assert out.startswith("digraph")


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, out, err = run(capsys, "sign", "c^2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("text", ["a^1_0", "a^\u0663", "b^\uff12"])
    def test_non_ascii_or_underscored_exponent_is_2(self, capsys, text):
        code, out, err = run(capsys, "sign", text)
        assert code == 2
        assert out == ""
        assert "bad exponent" in err

    def test_bad_n_is_2(self, capsys):
        code, _, err = run(capsys, "sign", "--n", "0", "a")
        assert code == 2

    def test_usage_error_is_2(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_empty_word_text_is_2(self, capsys):
        code, _, err = run(capsys, "nf", "")
        assert code == 2

    def test_bad_cayley_radius_is_2(self, capsys):
        code, _, err = run(capsys, "cayley", "--radius", "9")
        assert code == 2

    @pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
    def test_jobs_out_of_range_is_2_before_any_pool(self, capsys, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was created")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        code, _, err = run(capsys, "suite", "--n", "2", "--max-len", "2", f"--jobs={jobs}")
        assert code == 2
        assert "--jobs" in err

    @pytest.mark.parametrize("kmax", ["0", "-3"])
    def test_converge_kmax_below_one_is_2(self, capsys, kmax):
        code, out, err = run(capsys, "converge", "--kmax", kmax, "--plain")
        assert code == 2
        assert out == ""
        assert err == f"error: k_max must be >= 1, got {kmax}\n"

    def test_converge_kmax_above_1000_is_2(self, capsys):
        code, out, err = run(capsys, "converge", "--kmax", "1001", "--plain")
        assert code == 2
        assert out == ""
        assert err == "error: k_max must be <= 1000, got 1001\n"

    @pytest.mark.parametrize("name", ["missing.txt", "."])
    def test_unreadable_elems_file_is_2(self, capsys, tmp_path, name):
        code, out, err = run(capsys, "converge", "--elems", str(tmp_path / name))
        assert code == 2
        assert out == ""
        assert err.startswith("error: [Errno ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
    def test_elems_file_of_no_words_is_2(self, capsys, tmp_path, text):
        elems = tmp_path / "elems.txt"
        elems.write_text(text)
        code, out, err = run(capsys, "converge", "--kmax", "2", "--elems", str(elems))
        assert code == 2
        assert out == ""
        assert err == "error: no elements to track\n"

    @pytest.mark.parametrize("max_len", ["-1", "13"])
    def test_suite_max_len_out_of_range_is_2_before_enumerating(self, capsys, monkeypatch, max_len):
        def no_ball(*args, **kwargs):
            raise AssertionError("the ball was walked")

        monkeypatch.setattr(suites, "_walk", no_ball)
        code, out, err = run(capsys, "suite", "--n", "2", "--max-len", max_len)
        assert code == 2
        assert out == ""
        assert err == f"error: max_len must be in 0..12, got {max_len}\n"

    @pytest.mark.parametrize("max_len", ["-5", "13", "99"])
    def test_identities_refuse_max_len_out_of_range_too(self, capsys, monkeypatch, max_len):
        # The identity battery walks no ball, but --max-len is checked for
        # every --kind, by the same check and message as the trichotomy's.
        monkeypatch.setattr(suites, "run_identity_suite", lambda ctx: pytest.fail("the battery ran"))
        code, out, err = run(capsys, "suite", "--kind", "identities", "--max-len", max_len)
        assert (code, out, err) == (2, "", f"error: max_len must be in 0..12, got {max_len}\n")

    @pytest.mark.parametrize("n", ["1", "3", "7", "63", "99", "0"])
    @pytest.mark.parametrize("argv", [["sign", "s1"], ["bridge", "s1"], ["bridge", "--alphabet", "ab", "a"], ["cert", "a"]])
    def test_b3_refuses_every_n_but_2(self, capsys, n, argv):
        # b3 works in G_2 = B_3 only, as every other command refuses n
        # outside 1..63.
        code, out, err = run(capsys, "b3", "--n", n, *argv)
        assert (code, out, err) == (2, "", "error: b3 works in G_2 = B_3 only: n must be 2\n")
        assert run(capsys, "b3", "--n", "2", *argv)[0] == 0

    def test_failed_certificate_is_3_with_one_json_line(self, capsys, monkeypatch):
        monkeypatch.setattr(braid3, "_certified", lambda m, source, target: False)
        code, out, err = run(capsys, "b3", "cert", "b^3")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert (doc["error"], doc["type"]) == ("internal", "CertificateError")

    def test_broken_normal_form_invariant_is_3_with_one_json_line(self, capsys, monkeypatch):
        def broken(word, ctx):
            raise normalform.ReductionStuck("forced")

        monkeypatch.setattr(normalform, "to_normal_form", broken)
        code, out, err = run(capsys, "nf", "--n", "2", "a b")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "internal", "type": "ReductionStuck", "message": "forced"}

    @pytest.mark.parametrize("ell", [-1, 0])
    def test_failed_verdict_check_is_3_with_one_json_line(self, capsys, monkeypatch, ell):
        # cmp reads cone.verdict off the normal form; a prefix that breaks
        # the check it rests on (here a zero exponent) is an internal error.
        monkeypatch.setattr(orderings, "resume", lambda state, word, ctx: ([(1, 1), (0, 0)], ell, 16))
        code, out, err = run(capsys, "cmp", "--n", "2", "a", "b")
        assert (code, out, err.count("\n")) == (3, "", 1)
        doc = json.loads(err)
        assert (doc["error"], doc["type"]) == ("internal", "ReductionStuck")

    @pytest.mark.parametrize("error", [RewriteLimitError, ReductionStuck])
    def test_internal_error_is_3_with_one_json_line(self, capsys, monkeypatch, error):
        def broken(word, ctx, cut):
            raise error("forced")

        monkeypatch.setattr(cli, "certify_sign", broken)
        code, out, err = run(capsys, "sign", "--n", "2", "a b")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "internal",
            "type": error.__name__,
            "message": "forced",
        }

    def test_exhausted_certify_budget_is_3_with_one_json_line(self, capsys, monkeypatch):
        # n = 7 cuts its witness, so sign runs the stack pass chunk by chunk
        # (normalform.stack_checkpoints).
        monkeypatch.setattr(normalform, "START", ((), 0, -10**6))
        code, out, err = run(capsys, "sign", "--n", "7", "a b^-2 a^3 b")
        assert (code, out, err.count("\n")) == (3, "", 1)
        assert json.loads(err) == {
            "error": "internal",
            "type": "RewriteLimitError",
            "message": "normal-form budget exhausted",
        }


class TestDeterminism:
    def test_suite_json_stable_across_runs(self, capsys):
        def snapshot():
            code, out, _ = run(capsys, "suite", "--n", "2", "--max-len", "4")
            assert code == 0
            return "\n".join(
                line for line in out.splitlines() if "wall_time" not in line
            )

        assert snapshot() == snapshot()


# argv the one-command fast path of cli.main must parse exactly as the
# full nine-subparser tree does, usage errors and --help included.
ARGV_CORPUS = [
    ["sign", "a"],
    ["sign", "--n", "7", "--plain", "a b^-2"],
    ["sign", "--n=5", "a"],
    ["sign", "--n", "2", "--n", "3", "b a^-2 b a"],
    ["sign", "--plain", "--plain", "a"],
    ["-h", "sign"],
    ["--help"],
    ["sign", "-h"],
    ["sign", "--he"],
    ["sign", "--help", "a"],
    ["sign", "a", "--help"],
    ["--plain", "sign", "a"],
    ["--n", "2", "sign", "a"],
    ["--", "sign", "a"],
    ["sign", "--", "-a"],
    ["sign", "--", "a"],
    ["sign", "a", "--"],
    ["sign", "--", "--", "a"],
    ["sign", "--bogus", "a"],
    ["sign", "a", "--bogus"],
    ["sign", "a", "--bogus", "--other"],
    ["sign", "-x", "a"],
    ["sign", "--pl", "a"],
    ["sign", "--n"],
    ["sign", "a", "--n"],
    ["sign", "--plain=yes", "a"],
    ["sign", "a", "b"],
    ["sign"],
    ["sign", "--"],
    ["SIGN", "a"],
    ["sig", "a"],
    [""],
    [],
    ["-x"],
    ["cmp", "a"],
    ["cmp", "--order", "lex", "a", "b"],
    ["cmp", "--ord", "dlike", "1", "b^-1"],
    ["cmp", "--order=ddrev", "--conj", "b a", "a", "b"],
    ["nf", "--n", "3", "b^-2", "--plain"],
    ["oracle", "--n", "2", "a^3"],
    ["ctx"],
    ["ctx", "extra"],
    ["b3"],
    ["b3", "twist", "s1"],
    ["b3", "bridge", "--alph", "ab", "a b^-1"],
    ["b3", "bridge", "--alphabet=ab", "a"],
    ["converge", "--kmax", "x"],
    ["converge", "--km", "2", "--plain"],
    ["suite", "--n", "2", "--max-len", "1"],
    ["suite", "--jobs", "0"],
    ["suite", "--kind", "everything"],
    ["cayley", "--radius", "1", "--format", "json", "--plain"],
    ["cayley", "--format", "svg"],
]
_WALL_TIME = re.compile(r'"wall_time": [0-9.e+-]+')


def _outcome(capsys, argv):
    status = main(argv)
    out = capsys.readouterr()
    return status, _WALL_TIME.sub("<masked>", out.out), _WALL_TIME.sub("<masked>", out.err)


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=lambda argv: " ".join(argv) or "<none>")
def test_fast_path_matches_full_tree(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with monkeypatch.context() as full_tree:
        full_tree.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
        expected = _outcome(capsys, argv)
    assert _outcome(capsys, argv) == expected


@pytest.fixture
def parsers_made(monkeypatch):
    """The prog of every ArgumentParser built, subparsers included."""
    made = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return made


class TestParsersBuilt:
    def test_a_command_builds_its_own_parser_once(self, capsys, parsers_made):
        cli._command_parser.cache_clear()
        assert main(["sign", "a"]) == 0
        assert parsers_made == ["heckeord sign"]
        parsers_made.clear()
        assert main(["sign", "a"]) == 0
        assert parsers_made == []
        capsys.readouterr()

    def test_help_builds_the_full_tree(self, capsys, parsers_made):
        assert main(["--help"]) == 0
        assert parsers_made == ["heckeord"] + [f"heckeord {name}" for name in cli.COMMANDS]
        assert capsys.readouterr().out.startswith("usage: heckeord [-h]")

    def test_help_builds_the_full_tree_on_every_call(self, capsys, parsers_made):
        for _ in range(2):
            parsers_made.clear()
            assert main(["--help"]) == 0
            assert parsers_made == ["heckeord"] + [f"heckeord {name}" for name in cli.COMMANDS]
        capsys.readouterr()

    def test_left_over_argument_is_reported_by_the_top_level_parser(self, capsys, parsers_made):
        assert main(["sign", "a"]) == 0  # the sign parser is warm from here on
        parsers_made.clear()
        assert main(["sign", "a", "--bogus"]) == 2
        assert parsers_made == ["heckeord"] + [f"heckeord {name}" for name in cli.COMMANDS]
        err = capsys.readouterr().err
        assert err.startswith("usage: heckeord [-h]")
        assert err.endswith("heckeord: error: unrecognized arguments: --bogus\n")


def _full_tree_outcome(capsys, monkeypatch, argv):
    with monkeypatch.context() as full_tree:
        full_tree.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
        return _outcome(capsys, argv)


class TestWarmParsers:
    """A command's parser serves every call in the process: no parse may leave
    anything on it that shows in the next, and what argparse reads from the
    machine (the terminal width, the CPU count) is read anew on each call."""

    def test_corpus_forward_and_reversed_matches_a_fresh_full_tree(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        expected = {tuple(argv): _full_tree_outcome(capsys, monkeypatch, argv) for argv in ARGV_CORPUS}
        for name in cli.COMMANDS:
            assert main([name, "-h"]) == 0
        capsys.readouterr()
        for argv in ARGV_CORPUS + ARGV_CORPUS[::-1]:
            assert _outcome(capsys, argv) == expected[tuple(argv)], argv

    def test_help_wraps_to_the_width_at_each_call(self, capsys, monkeypatch):
        got = {}
        for columns in ("80", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            got[columns] = _outcome(capsys, ["sign", "--help"])
            assert got[columns] == _full_tree_outcome(capsys, monkeypatch, ["sign", "--help"])
        assert got["80"] != got["40"]

    def test_jobs_is_checked_against_the_cpu_count_at_each_call(self, capsys, monkeypatch):
        argv = ["suite", "--jobs", "2", "--max-len", "1"]
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith("heckeord suite: error: argument --jobs: must be an integer in 1..1, got '2'\n")
