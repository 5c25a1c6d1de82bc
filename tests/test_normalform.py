"""Central normal form prefix * delta^ell: anchors and oracle soundness."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import words
from reference_core import reference_stack_pass
from heckeord import cone, normalform
from heckeord.context import group_context
from heckeord.normalform import START, NormalForm, ReductionStuck, resume, to_normal_form
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


BAD_PREFIXES = [((GEN_A, -1),), ((GEN_A, 2), (GEN_B, 0)), ((GEN_B, 1), (GEN_A, -3))]


class TestInvariant:
    """The positive-prefix invariant is a real check, kept under python -O."""

    @pytest.mark.parametrize("prefix", BAD_PREFIXES)
    def test_non_positive_prefix_raises(self, prefix):
        with pytest.raises(ReductionStuck):
            NormalForm(prefix=prefix, ell=0)

    @pytest.mark.parametrize("prefix", BAD_PREFIXES)
    @pytest.mark.parametrize("ell", [-1, 0, 1])
    def test_one_error_for_a_bad_prefix(self, prefix, ell):
        # The order verdict checks a raw stack itself; the sign pass takes
        # a NormalForm, whose check runs first.  Both raise the one error
        # that normalform defines and cone re-exports.
        ctx = group_context(2)
        assert cone.ReductionStuck is ReductionStuck
        with pytest.raises(ReductionStuck, match="not a positive word"):
            cone.verdict(prefix, ell, ctx)
        with pytest.raises(ReductionStuck, match="not a positive word"):
            cone.sign_pass(NormalForm(prefix, ell), ctx)

    def test_positive_prefix_is_accepted(self):
        assert NormalForm(prefix=((GEN_A, 2), (GEN_B, 1)), ell=-3).ell == -3
        assert NormalForm(prefix=(), ell=0).prefix == ()

    def test_check_survives_python_O(self):
        # A child under python -O, where the assert below is stripped:
        # the check still raises.
        code = (
            "from heckeord.cone import verdict\n"
            "from heckeord.context import group_context\n"
            "from heckeord.normalform import NormalForm, ReductionStuck\n"
            "assert False, 'asserts run'\n"
            "for ell in (-1, 0):\n"
            "    try:\n"
            "        NormalForm(((0, 1), (1, -1)), ell)\n"
            "    except ReductionStuck:\n"
            "        print('raised')\n"
            "    try:\n"
            "        verdict(((0, 1), (1, -1)), ell, group_context(2))\n"
            "    except ReductionStuck:\n"
            "        print('raised')\n"
        )
        src = str(Path(normalform.__file__).resolve().parent.parent)
        child = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert (child.returncode, child.stdout) == (0, "raised\n" * 4), child.stderr


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
        with pytest.raises(ReductionStuck):
            NormalForm(ell=0, prefix=((GEN_B, -2),))

    def test_replace_and_make_run_the_check(self):
        nf = NormalForm(self.PREFIX, -1)
        assert nf._replace(ell=2) == NormalForm(self.PREFIX, 2)
        assert NormalForm._make([(), 4]) == NormalForm((), 4)
        with pytest.raises(ReductionStuck):
            nf._replace(prefix=((GEN_A, 0),))
        with pytest.raises(ReductionStuck):
            NormalForm._make([((GEN_B, -1),), 0])

    def test_to_normal_form_returns_the_type(self):
        nf = to_normal_form(parse_word("b^-2"), group_context(2))
        assert type(nf) is NormalForm and isinstance(nf.prefix, tuple)


def by_syllable(word, ctx, state=START):
    """The stack pass resumed one syllable at a time, its budget raw (it
    may go negative)."""
    for syllable in word:
        state = normalform._push(list(state[0]), state[1], state[2], (syllable,), ctx)
    return state


# Words that reach every branch of the pass: a^-m, b^-t up to t = 300,
# and mixtures.
RESUME_CASES = [
    "a^-1", "a^-7", "a^-40", "b^-1", "b^-2", "b^-3", "b^-300",
    "a b^-300 a", "b^-5 a^-1 b a^2", "a^3 b^-17 a^-2 b^4 a^-9 b^-300",
    "b a^2 b a^2 b", "b^-150 b^-150", "a^-2 b^-2 a^-2 b^-2",
]

# b^-t onto every top of the stack, as templates in n, q = n + 1 and
# j = max(1, n - 1) (j < n from n = 2 on).  a^q is one delta: it leaves
# the stack as it was, so the b-block before it is the top for b^-t.
SHAPES = [
    "a b^-3",  # onto a^1 alone
    "b a b^-3",  # onto a^1 over a b-block: the first b merges into it
    "a^{n} b^-3",  # onto a^i, i = n >= 2 from n = 2 on
    "b a^{j} b^-4",  # onto a^i over a b-block, i = n - 1 >= 2 from n = 3 on
    "a^{q} b^-3",  # onto the empty stack
    "b^5 a^{q} b^-3",  # onto b^s, s > t
    "b^3 a^{q} b^-3",  # onto b^s, s = t: the block is popped
    "b a^{j} b^2 a^{q} b^-5",  # s < t over an a^j, j < n, over a b-block
    "a^{j} b^2 a^{q} b^-5",  # s < t over a bottom a^j
    "a^{n} b^2 a^{q} b^-5",  # s < t over a bottom a^n
    "b^2 a^{q} b^-5",  # s < t over nothing
]


def shape(template, n):
    return parse_word(template.format(n=n, q=n + 1, j=max(1, n - 1)))


class TestResume:
    """The stack pass is a left fold: resumed from the state of u over v
    it gives the state of u v."""

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
        stack, ell, budget = normalform._push([], 0, slack, w, ctx)
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
                state = resume(state, letter, ctx)
                assert state[2] >= 0
        nf = to_normal_form(w, ctx)
        assert (tuple(state[0]), state[1]) == (nf.prefix, nf.ell)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 63])
    @pytest.mark.parametrize("text", RESUME_CASES + SHAPES)
    def test_budget_trips_where_the_resumed_pass_runs_out(self, monkeypatch, n, text):
        # With no slack the resumed pass leaves spare = letters - firings;
        # to_normal_form raises from a START slack of -spare - 1 down and
        # not from -spare up.
        ctx = group_context(n)
        w = shape(text, n)
        spare = by_syllable(w, ctx, ((), 0, 0))[2]
        assert spare >= 0
        monkeypatch.setattr(normalform, "START", ((), 0, -spare))
        nf = to_normal_form(w, ctx)
        monkeypatch.setattr(normalform, "START", ((), 0, -spare - 1))
        with pytest.raises(RewriteLimitError):
            to_normal_form(w, ctx)
        monkeypatch.undo()
        assert nf == to_normal_form(w, ctx)

    @given(st.integers(min_value=1, max_value=63), words(max_syllables=12, max_exp=300), words(max_syllables=6, max_exp=300))
    def test_push_runs_on_its_list_in_place(self, n, u, v):
        # The pass itself: resume hands it a copy, cone's cuts one list
        # for the whole word.
        ctx = group_context(n)
        before = resume(START, u, ctx)
        stack = list(before[0])
        out = normalform._push(stack, before[1], before[2], v, ctx)
        assert out[0] is stack and out == resume(before, v, ctx)

    def test_input_state_is_not_changed(self):
        ctx = CTX2
        stack = [(GEN_A, 2), (GEN_B, 1)]
        state = (stack, -1, 16)
        out = resume(state, parse_word("a^2 b"), ctx)
        assert stack == [(GEN_A, 2), (GEN_B, 1)]
        assert out[0] is not stack


class TestAgainstReference:
    """The stack pass writes each syllable in closed form; the reference
    pass pushes b^-t one block at a time.  Both must leave the same
    stack, ell and budget from every reachable state."""

    # n = 1 and small exponents are drawn often: there the period b a^(n-1)
    # collapses and a b^-t meets a b-block of its own size.
    @given(
        st.one_of(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=63)),
        st.sampled_from([2, 6, 300]).flatmap(lambda e: words(max_syllables=8, max_exp=e)),
        st.integers(min_value=-50, max_value=16),
        st.sampled_from([2, 6, 300]).flatmap(lambda e: words(max_syllables=8, max_exp=e)),
    )
    def test_same_state_as_the_reference_pass(self, n, u, slack, w):
        ctx = group_context(n)
        start = reference_stack_pass(((), 0, slack), u, ctx)
        got = normalform._push(list(start[0]), start[1], start[2], w, ctx)  # a raw budget, maybe negative
        assert got == reference_stack_pass(start, w, ctx)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 63])
    @pytest.mark.parametrize("template", SHAPES)
    def test_every_b_inverse_shape(self, n, template):
        # Whole word, and resumed syllable by syllable from list stacks.
        ctx = group_context(n)
        w = shape(template, n)
        expected = reference_stack_pass(START, w, ctx)
        assert resume(START, w, ctx) == expected
        assert by_syllable(w, ctx) == expected
