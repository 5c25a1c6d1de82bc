"""Central normal form prefix * delta^ell: anchors and oracle soundness."""

import pytest
from hypothesis import given, settings

from conftest import words
from heckeord.context import group_context
from heckeord.normalform import NormalForm, NormalFormError, to_normal_form
from heckeord.oracle import oracle_is_identity
from heckeord.words import GEN_A, GEN_B, concat, format_word, gen_power, invert, parse_word


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
