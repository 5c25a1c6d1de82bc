"""Central normal form prefix * delta^ell: anchors and oracle soundness."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import words
from heckeord import normalform
from heckeord.context import group_context
from heckeord.normalform import START, NormalForm, NormalFormError, stack_pass, to_normal_form
from heckeord.oracle import oracle_is_identity
from heckeord.words import GEN_A, GEN_B, RewriteLimitError, concat, format_word, gen_power, invert, parse_word


def nf_to_word(nf, ctx):
    """The word prefix * a^((n+1) * ell), freely reduced."""
    return concat(nf.prefix, gen_power(GEN_A, ctx.q * nf.ell))


def is_normal_prefix(word, ctx):
    """Irreducibility test for a candidate prefix.

    Positive alternating syllables, a-exponents in [1, n], and no
    b a^n b factor (so interior a-exponents are at most n - 1).
    """
    n = ctx.n
    for i, (gen, exp) in enumerate(word):
        if exp <= 0:
            return False
        if gen == GEN_A:
            if exp > n:
                return False
            if exp == n and 0 < i < len(word) - 1:
                return False
    return True


CTX2 = group_context(2)
CTX3 = group_context(3)


def nf_of(text: str, ctx=CTX2):
    nf = to_normal_form(parse_word(text), ctx)
    return format_word(nf.prefix), nf.ell


class TestAnchors:
    def test_identity(self):
        assert nf_of("1") == ("1", 0)

    def test_positive_words_keep_ell_nonnegative(self):
        for text in ("a", "b", "a b^2", "b a b a^2", "a^2 b^5 a"):
            prefix, ell = nf_of(text)
            assert ell >= 0, text

    def test_delta_absorption(self):
        assert nf_of("a^3") == ("1", 1)  # delta = a^3 at n=2
        assert nf_of("a^7") == ("a", 2)
        assert nf_of("a^4", CTX3) == ("1", 1)

    def test_relator_collapses(self):
        # b a^n b -> a
        assert nf_of("b a^2 b") == ("a", 0)
        assert nf_of("b a^3 b", CTX3) == ("a", 0)

    def test_inverse_a(self):
        # a^-1 = a^n delta^-1
        assert nf_of("a^-1") == ("a^2", -1)
        assert nf_of("a^-1", CTX3) == ("a^3", -1)

    def test_inverse_b(self):
        # b^-1 = delta^-1 a^n b a^n
        assert nf_of("b^-1") == ("a^2 b a^2", -1)
        assert nf_of("b^-2") == ("a^2 b a b a^2", -1)
        assert nf_of("b^-1", CTX3) == ("a^3 b a^3", -1)

    def test_mixed_word_prefix_is_irreducible(self):
        prefix, _ = nf_of("a b a^-1")
        assert is_normal_prefix(parse_word(prefix), CTX2)

    def test_rewrite_chains_back_up(self):
        # Two r2 contractions with a backward rescan in between:
        # b a^2 b a^2 b = (b a^2 b) a^2 b = a^3 b = b * delta.
        assert nf_of("b a^2 b a^2 b") == ("b", 1)


class TestPrefixPredicate:
    def test_accepts_irreducible_shapes(self):
        for text in ("1", "a", "b^7", "a b", "b a^2", "a^2 b a b^3 a^2"):
            assert is_normal_prefix(parse_word(text), CTX2), text

    def test_rejects_r1_redex(self):
        assert not is_normal_prefix(parse_word("a^3"), CTX2)

    def test_rejects_r2_redex(self):
        assert not is_normal_prefix(parse_word("b a^2 b"), CTX2)
        assert not is_normal_prefix(parse_word("b^2 a^3 b"), CTX3)

    def test_rejects_negative_letters(self):
        assert not is_normal_prefix(parse_word("a^-1"), CTX2)

    def test_interior_rule_is_positional(self):
        # a^n at the boundary is fine; in the interior (b-flanked) it is not.
        assert is_normal_prefix(parse_word("a^2 b"), CTX2)
        assert is_normal_prefix(parse_word("b a^2"), CTX2)
        assert not is_normal_prefix(parse_word("b a^2 b"), CTX2)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
class TestSoundness:
    def test_normal_form_is_group_equal_ball4(self, n):
        from heckeord.words import enumerate_reduced

        ctx = group_context(n)
        for w in enumerate_reduced(4):
            nf = to_normal_form(w, ctx)
            assert is_normal_prefix(nf.prefix, ctx), format_word(w)
            assert oracle_is_identity(
                concat(invert(w), nf_to_word(nf, ctx)), ctx
            ), format_word(w)

    @settings(max_examples=60)
    @given(words())
    def test_normal_form_is_group_equal_random(self, n, w):
        ctx = group_context(n)
        nf = to_normal_form(w, ctx)
        assert is_normal_prefix(nf.prefix, ctx)
        assert oracle_is_identity(concat(invert(w), nf_to_word(nf, ctx)), ctx)

    @settings(max_examples=30)
    @given(words(max_syllables=4))
    def test_normal_form_is_idempotent(self, n, w):
        ctx = group_context(n)
        nf = to_normal_form(w, ctx)
        again = to_normal_form(nf_to_word(nf, ctx), ctx)
        assert again.prefix == nf.prefix
        assert again.ell == nf.ell


class TestInvariant:
    """The positive-prefix invariant is a real check, kept under python -O."""

    @pytest.mark.parametrize("prefix", [((GEN_A, -1),), ((GEN_A, 2), (GEN_B, 0)), ((GEN_B, 1), (GEN_A, -3))])
    def test_non_positive_prefix_raises(self, prefix):
        with pytest.raises(NormalFormError):
            NormalForm(prefix=prefix, ell=0)

    def test_positive_prefix_is_accepted(self):
        assert NormalForm(prefix=((GEN_A, 2), (GEN_B, 1)), ell=-3).ell == -3
        assert NormalForm(prefix=(), ell=0).prefix == ()

    def test_check_survives_python_O(self):
        # A child under python -O, where the assert below is stripped:
        # the check still raises.
        code = (
            "from heckeord.normalform import NormalForm, NormalFormError\n"
            "assert False, 'asserts run'\n"
            "try:\n"
            "    NormalForm(((0, 1), (1, -1)), 0)\n"
            "except NormalFormError:\n"
            "    print('raised')\n"
        )
        src = str(Path(normalform.__file__).resolve().parent.parent)
        child = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert (child.returncode, child.stdout) == (0, "raised\n"), child.stderr


class TestResultType:
    """NormalForm is a named tuple: immutable, hashable, equal by its
    fields, built by position or keyword, with a dataclass-style repr."""

    PREFIX = ((GEN_A, 2), (GEN_B, 1))

    def test_fields_cannot_be_assigned(self):
        nf = NormalForm(self.PREFIX, -1)
        for field, value in (("prefix", ()), ("ell", 0)):
            with pytest.raises(AttributeError):
                setattr(nf, field, value)
        with pytest.raises(AttributeError):
            nf.other = 1  # no instance dict either
        assert nf == NormalForm(self.PREFIX, -1)

    def test_equality_and_hash_follow_the_fields(self):
        nf = NormalForm(self.PREFIX, -1)
        assert nf == NormalForm(prefix=self.PREFIX, ell=-1)
        assert hash(nf) == hash(NormalForm(prefix=self.PREFIX, ell=-1)) == hash((self.PREFIX, -1))
        assert nf != NormalForm(self.PREFIX, 0)
        assert nf != NormalForm(self.PREFIX[:1], -1)
        assert len({nf, NormalForm(self.PREFIX, -1), NormalForm((), -1)}) == 2

    def test_keyword_and_positional_construction(self):
        nf = NormalForm(ell=3, prefix=self.PREFIX)
        assert (nf.prefix, nf.ell) == (self.PREFIX, 3)
        prefix, ell = nf
        assert (prefix, ell) == (self.PREFIX, 3)
        assert repr(nf) == "NormalForm(prefix=((0, 2), (1, 1)), ell=3)"
        with pytest.raises(TypeError):
            NormalForm(self.PREFIX)
        with pytest.raises(NormalFormError):
            NormalForm(ell=0, prefix=((GEN_B, -2),))

    def test_replace_and_make_run_the_check(self):
        nf = NormalForm(self.PREFIX, -1)
        assert nf._replace(ell=2) == NormalForm(self.PREFIX, 2)
        assert NormalForm._make([(), 4]) == NormalForm((), 4)
        with pytest.raises(NormalFormError):
            nf._replace(prefix=((GEN_A, 0),))
        with pytest.raises(NormalFormError):
            NormalForm._make([((GEN_B, -1),), 0])

    def test_to_normal_form_returns_the_type(self):
        nf = to_normal_form(parse_word("b^-2"), group_context(2))
        assert type(nf) is NormalForm and isinstance(nf.prefix, tuple)


def by_syllable(word, ctx, state=START):
    """The stack pass resumed one syllable at a time."""
    for syllable in word:
        state = stack_pass(state, (syllable,), ctx)
    return state


# Words that reach every branch of the pass: a^-m, b^-t up to t = 300
# (t >= 3 appends the steady state (b a^(n-1))^k in bulk), and mixtures.
RESUME_CASES = [
    "a^-1", "a^-7", "a^-40", "b^-1", "b^-2", "b^-3", "b^-300",
    "a b^-300 a", "b^-5 a^-1 b a^2", "a^3 b^-17 a^-2 b^4 a^-9 b^-300",
    "b a^2 b a^2 b", "b^-150 b^-150", "a^-2 b^-2 a^-2 b^-2",
]


class TestResume:
    """stack_pass is a left fold: resumed from the state of u over v it
    gives the state of u v."""

    @given(
        st.integers(min_value=1, max_value=63),
        words(max_syllables=8, max_exp=300),
        st.integers(min_value=-50, max_value=16),
    )
    def test_by_syllable_matches_the_whole_word(self, n, w, slack):
        # Same stack, ell and budget left, from any starting budget: so
        # the tripwire fires at the same point either way.
        ctx = group_context(n)
        start = ((), 0, slack)
        stack, ell, budget = stack_pass(start, w, ctx)
        resumed = by_syllable(w, ctx, start)
        assert (list(resumed[0]), resumed[1], resumed[2]) == (stack, ell, budget)
        nf = to_normal_form(w, ctx)
        assert (tuple(stack), ell) == (nf.prefix, nf.ell)

    @given(st.integers(min_value=1, max_value=63), words(max_syllables=8, max_exp=6))
    def test_by_letter_gives_the_same_normal_form(self, n, w):
        # Letter by letter, as the trichotomy suite walks the ball: the
        # same normal form, and the budget never runs out.
        ctx = group_context(n)
        state = START
        for gen, exp in w:
            letter = ((gen, 1 if exp > 0 else -1),)
            for _ in range(abs(exp)):
                state = stack_pass(state, letter, ctx)
                assert state[2] >= 0
        nf = to_normal_form(w, ctx)
        assert (tuple(state[0]), state[1]) == (nf.prefix, nf.ell)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 63])
    @pytest.mark.parametrize("text", RESUME_CASES)
    def test_budget_trips_where_the_resumed_pass_runs_out(self, monkeypatch, n, text):
        # With no slack the resumed pass leaves spare = letters - firings;
        # to_normal_form raises from a START slack of -spare - 1 down and
        # not from -spare up.
        ctx = group_context(n)
        w = parse_word(text)
        spare = by_syllable(w, ctx, ((), 0, 0))[2]
        assert spare >= 0
        monkeypatch.setattr(normalform, "START", ((), 0, -spare))
        nf = to_normal_form(w, ctx)
        monkeypatch.setattr(normalform, "START", ((), 0, -spare - 1))
        with pytest.raises(RewriteLimitError):
            to_normal_form(w, ctx)
        monkeypatch.undo()
        assert nf == to_normal_form(w, ctx)

    def test_input_state_is_not_changed(self):
        ctx = CTX2
        stack = [(GEN_A, 2), (GEN_B, 1)]
        state = (stack, -1, 16)
        out = stack_pass(state, parse_word("a^2 b"), ctx)
        assert stack == [(GEN_A, 2), (GEN_B, 1)]
        assert out[0] is not stack
