"""The one-pass decision core against the leftmost-first reference.

reference_core.py keeps the earlier scanner and the move-by-move
cascade verbatim.  The normal form is unique (the rewriting system is
confluent), and the one-pass witness is the word the cascade's forced
moves build, so both cores must give equal NormalForms and equal
SignResults, down to the number of cascade steps.
"""

import pytest
from hypothesis import given, settings, strategies as st

from heckeord.cone import decide_sign
from heckeord.context import group_context
from heckeord.normalform import to_normal_form
from heckeord.words import (
    GEN_A,
    GEN_B,
    concat,
    enumerate_reduced,
    format_word,
    parse_word,
    word_from_syllables,
)
from reference_core import reference_decide_sign, reference_normal_form

SMALL = st.integers(min_value=-4, max_value=4).filter(lambda e: e != 0)
SYLLABLE = st.one_of(
    st.tuples(st.sampled_from([GEN_A, GEN_B]), SMALL),
    st.tuples(st.just(GEN_B), st.integers(min_value=-300, max_value=-1)),
)


def assert_same_core(word, ctx):
    text = format_word(word)
    assert to_normal_form(word, ctx) == reference_normal_form(word, ctx), (ctx.n, text)
    assert decide_sign(word, ctx) == reference_decide_sign(word, ctx), (ctx.n, text)


# Half the draws use n <= 4, where exponents up to 4 reach a^n directly.
N = st.one_of(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=63))


@settings(max_examples=150)
@given(N, st.lists(SYLLABLE, max_size=40))
def test_random_words_match_reference(n, syllables):
    assert_same_core(word_from_syllables(syllables), group_context(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_matches_reference(n):
    ctx = group_context(n)
    for word in enumerate_reduced(6):
        assert_same_core(word, ctx)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_r2_chain_reaches_a_bottom_delta(n, s):
    # b a^n b -> a grows a bottom a^n to a^(n+1) = delta.
    ctx = group_context(n)
    for text in (f"a^{n} b^{s} a^{n} b^{s}", f"a^{n} b^{s} a^{n} b^{s + 1} a", f"a^-1 b^{s} a^-1 b^{s}"):
        assert_same_core(parse_word(text), ctx)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 63])
class TestBPowerEntry:
    """Where the bulk append of b^-t's steady state starts, or must not."""

    @pytest.mark.parametrize("t", [1, 2, 3, 40])
    def test_bare_b_power(self, n, t):
        assert_same_core(parse_word(f"b^-{t}"), group_context(n))

    @pytest.mark.parametrize("t", [1, 2, 3, 40])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_b_block_just_before(self, n, s, t):
        for head in ("", "a ", f"a^{n} "):
            assert_same_core(parse_word(f"{head}b^{s} a^-1 b^-{t} a"), group_context(n))

    @pytest.mark.parametrize("t", [1, 2, 3, 40])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_b_then_a_block_just_before(self, n, s, t):
        ctx = group_context(n)
        for k in sorted({1, max(n - 1, 1), n}):
            for head in ("", "a ", f"a^{n} "):
                assert_same_core(parse_word(f"{head}b^{s} a^{k} b^-{t}"), ctx)
                assert_same_core(parse_word(f"{head}b^{s} a^{k} b^-{t} a^{k} b^{s}"), ctx)


def test_n1_keeps_every_pair():
    # n = 1: a^(n-1) is empty, so no steady block forms and b^-t
    # collapses to a b^t a * delta^-1 one pair at a time.
    ctx = group_context(1)
    nf = to_normal_form(parse_word("b^-40"), ctx)
    assert (format_word(nf.prefix), nf.ell) == ("a b^40 a", -1)
    assert_same_core(parse_word("b^-40"), ctx)


# u b^-t v: the normal form appends b^-t's periodic tail in bulk, and
# the cascade takes the tail's (b a^(n-1))^k in one jump.
SHORT = st.lists(st.tuples(st.sampled_from([GEN_A, GEN_B]), SMALL), max_size=8).map(word_from_syllables)
T = st.one_of(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=10_000))


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=63), SHORT, T, SHORT)
def test_long_b_power_matches_reference(n, u, t, v):
    assert_same_core(concat(u, ((GEN_B, -t),), v), group_context(n))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 31, 63])
@pytest.mark.parametrize("t", [9_999, 10_000])
@pytest.mark.parametrize(
    "text, verdict",
    [("a b^-{t}", "positive"), ("b^-{t} a^-1", "negative"), ("b a^-2 b^-{t} a^-1 b", "negative"),
     ("a^2 b^-{t} a^3 b^2", "positive"), ("b^-{t} a b^{t}", "positive")],
)
def test_long_b_power_both_verdicts(n, t, text, verdict):
    word = parse_word(text.format(t=t))
    assert_same_core(word, group_context(n))
    assert decide_sign(word, group_context(n)).verdict.value == verdict


# k around the chunk sizes words.gallop tries: 1, 2, 4, ... and back down.
RUN_LENGTHS = sorted({2**j + d for j in range(11) for d in (-1, 0, 1)} - {0})


class TestRunJumps:
    """The sign pass skips a run (b a^(n-1))^k, k >= 2, in one jump; the
    reference takes it one move per syllable."""

    @pytest.mark.parametrize("n", [2, 3, 63])
    @pytest.mark.parametrize("k", [1, 2, 5, 1000])
    def test_trailing_run(self, n, k):
        # Prefix (b a^(n-1))^k and ell = -1: the feed and 2k moves.
        ctx = group_context(n)
        word = concat(((GEN_B, 1), (GEN_A, n - 1)) * k, ((GEN_A, -n - 1),))
        result = decide_sign(word, ctx)
        assert result == reference_decide_sign(word, ctx)
        assert result.steps == 2 * k + 1

    @pytest.mark.parametrize("n", [2, 3, 63])
    @pytest.mark.parametrize("k", RUN_LENGTHS)
    def test_run_inside_the_prefix(self, n, k):
        ctx = group_context(n)
        run = ((GEN_B, 1), (GEN_A, n - 1)) * k
        # v stops the run at a b^3, at an a^n, or extends it by one period.
        for u in ((), parse_word("a b^2 a")):
            for v in ("b^3 a^2", f"b a^{n}", f"b a^{n - 1} b^2 a"):
                word = concat(u, run, parse_word(v), ((GEN_A, -n - 1),))
                nf = to_normal_form(word, ctx)
                assert nf.ell < 0 and nf.prefix[len(u) : len(u) + 2 * k] == run
                assert_same_core(word, ctx)
