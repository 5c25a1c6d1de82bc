"""The one-pass decision core against the leftmost-first reference.

reference_core.py keeps the earlier scanner and cascade verbatim.  The
normal form is unique (the rewriting system is confluent), and the
cascade's moves are fixed, so both cores must give equal NormalForms
and equal SignResults, down to the number of cascade steps.
"""

import pytest
from hypothesis import given, settings, strategies as st

from heckeord.cone import decide_sign
from heckeord.context import group_context
from heckeord.normalform import to_normal_form
from heckeord.words import GEN_A, GEN_B, enumerate_reduced, format_word, parse_word, word_from_syllables
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
