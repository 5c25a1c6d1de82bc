"""Word representation: parsing, free reduction, enumeration."""

import re
import sys
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from conftest import syllable_lists, words
from heckeord.words import (
    ALPHABET_AB,
    ALPHABET_SIGMA,
    GEN_A,
    GEN_B,
    MAX_LETTERS,
    WordSyntaxError,
    concat,
    conjugate,
    enumerate_reduced,
    format_word,
    gallop,
    gen_power,
    invert,
    is_one_signed,
    letter_length,
    parse_word,
    word_from_syllables,
)
from reference_core import reference_format_word, reference_parse_word


def is_positive_word(word):
    """True when nonempty and every exponent is positive."""
    return bool(word) and all(exp > 0 for _, exp in word)


class TestParse:
    def test_identity_spelling(self):
        assert parse_word("1") == ()
        assert parse_word("  1  ") == ()
        assert format_word(()) == "1"

    def test_basic_word(self):
        assert parse_word("a^2 b^-1 a") == ((GEN_A, 2), (GEN_B, -1), (GEN_A, 1))

    def test_bare_generator_means_exponent_one(self):
        assert parse_word("a b") == ((GEN_A, 1), (GEN_B, 1))

    def test_parse_reduces_freely(self):
        assert parse_word("a a^-1") == ()
        assert parse_word("a^2 a^3 b") == ((GEN_A, 5), (GEN_B, 1))

    def test_sigma_alphabet(self):
        assert parse_word("s1 s2^-2", ALPHABET_SIGMA) == ((GEN_A, 1), (GEN_B, -2))

    def test_empty_input_rejected(self):
        with pytest.raises(WordSyntaxError):
            parse_word("")

    def test_unknown_generator_rejected_with_offset(self):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word("a c^2")
        assert exc.value.offset == 2

    def test_zero_exponent_rejected(self):
        with pytest.raises(WordSyntaxError):
            parse_word("a^0")

    def test_bad_exponent_rejected(self):
        with pytest.raises(WordSyntaxError):
            parse_word("a^x")

    @pytest.mark.parametrize("text", ["a^1_0", "a^\u0663", "b^\uff12"])
    def test_exponent_is_ascii_digits_only(self, text):
        # int() takes "1_0", Arabic-Indic and full-width digits; the grammar does not.
        with pytest.raises(WordSyntaxError, match="bad exponent") as exc:
            parse_word(f"b {text}")
        assert exc.value.offset == 2

    def test_signed_ascii_exponents_parse(self):
        assert parse_word("a^+2 b^-10 a^007") == ((GEN_A, 2), (GEN_B, -10), (GEN_A, 7))

    def test_word_at_the_letter_limit_parses(self):
        assert parse_word(f"a b^-{MAX_LETTERS - 1}") == ((GEN_A, 1), (GEN_B, 1 - MAX_LETTERS))

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("b^-1000000000000", 0),
            (f"a^{MAX_LETTERS + 1}", 0),
            (f"a b^-{MAX_LETTERS}", 2),
            (f"a^2 b^-{MAX_LETTERS - 1} a^-1", 4),
            (f"b^{MAX_LETTERS}  a  b^-5", 11),
            (f"a\u2003\x1fb^{MAX_LETTERS}", 3),  # Unicode whitespace separates terms too
        ],
    )
    def test_longer_word_refused_at_the_crossing_term(self, text, offset):
        with pytest.raises(WordSyntaxError, match=f"more than {MAX_LETTERS} letters") as exc:
            parse_word(text)
        assert exc.value.offset == offset

    def test_letter_limit_counts_cancelled_letters(self):
        # Letters count before free reduction: "a a^-1" is two letters.
        half = MAX_LETTERS // 2
        assert parse_word(f"a^{half} a^-{half}") == ()
        with pytest.raises(WordSyntaxError):
            parse_word(f"a^{half} a^-{half} b")

    def test_many_one_letter_terms_at_the_limit(self):
        text = "a b " * (MAX_LETTERS // 2)
        assert len(parse_word(text)) == MAX_LETTERS
        with pytest.raises(WordSyntaxError, match=f"more than {MAX_LETTERS} letters") as exc:
            parse_word(text + "a")
        assert exc.value.offset == 2 * MAX_LETTERS

    def test_syntax_error_is_value_error(self):
        # The CLI maps ValueError to exit code 2; parse errors must qualify.
        assert issubclass(WordSyntaxError, ValueError)

    def test_split_and_regex_agree_on_whitespace(self):
        # parse_word splits terms with str.split(); the reference parser
        # finds them with the regex \S+, so the differential property
        # below holds only while both see the same spaces.
        everything = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", everything) == [c for c in everything if c.isspace()]

    def test_refusal_offsets_after_every_kind_of_whitespace(self):
        # A refused term's offset is what str.split leaves after the terms
        # before it: right for every separator, runs of it and mixed runs.
        spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
        for space in spaces:
            for gap in (space, space * 3, f" {space}\t"):
                text = f"{gap}a{gap}b^2{gap}a^-1{gap}c^2{gap}"
                with pytest.raises(WordSyntaxError, match="unknown generator 'c'") as exc:
                    parse_word(text)
                assert exc.value.offset == text.index("c")
                zero = text.replace("c^2", "b^0")
                with pytest.raises(WordSyntaxError, match="zero exponent") as exc:
                    parse_word(zero)
                assert exc.value.offset == zero.index("b^0")


SEPARATORS = st.text(" \t\n\u2003\x1f\u3000", min_size=1, max_size=3)
EXPONENTS = st.one_of(
    st.just(""),
    st.integers(-9, 9).filter(bool).map("^{}".format),
    st.sampled_from(["^+2", "^007", "^-010", f"^{MAX_LETTERS // 2}", f"^-{MAX_LETTERS}", "^1000000000000"]),
)
CORRUPTIONS = st.sampled_from(["^", "^0", "^+0", "^1_0", "^\u0663", "^-"])


@st.composite
def word_texts(draw, alphabet):
    """Text of a few distinct terms, valid or not, repeated in any order,
    with whitespace runs around and between them."""
    names = st.sampled_from(alphabet)
    valid = st.builds(str.__add__, names, EXPONENTS)
    corrupted = st.one_of(
        st.builds(str.__add__, st.sampled_from(["c", "1", "ab", "s3", "", *ALPHABET_AB, *ALPHABET_SIGMA]), EXPONENTS),
        st.builds(str.__add__, names, CORRUPTIONS),
    )
    pool = draw(st.lists(st.one_of(valid, valid, corrupted), min_size=1, max_size=5))
    terms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    gaps = [draw(SEPARATORS) for _ in terms[1:]]
    edges = st.one_of(st.just(""), SEPARATORS)
    return draw(edges) + "".join(chain.from_iterable(zip(terms, [*gaps, ""]))) + draw(edges)


def parse_outcome(parse, text, alphabet):
    """The word parse returns, or the message and offset of its refusal."""
    try:
        return parse(text, alphabet)
    except WordSyntaxError as error:
        return str(error), error.offset


@pytest.mark.parametrize("alphabet", [ALPHABET_AB, ALPHABET_SIGMA])
@given(data=st.data())
def test_parse_matches_reference_parser(alphabet, data):
    text = data.draw(word_texts(alphabet))
    assert parse_outcome(parse_word, text, alphabet) == parse_outcome(reference_parse_word, text, alphabet)


@pytest.mark.parametrize("alphabet", [ALPHABET_AB, ALPHABET_SIGMA])
@given(w=words(max_syllables=30, max_exp=12))
def test_format_matches_reference_formatter(alphabet, w):
    # Repeated syllables (exponents in a small range) use the per-call
    # table, exponents of 1 and -1 the bare and the signed spelling.
    assert format_word(w, alphabet) == reference_format_word(w, alphabet)


def test_format_of_many_repeats_matches_reference_formatter():
    w = ((GEN_A, 1), (GEN_B, -1), (GEN_A, 2), (GEN_B, 1)) * 50 + ((GEN_A, -7),)
    assert format_word(w) == reference_format_word(w) == " ".join(["a b^-1 a^2 b"] * 50 + ["a^-7"])


# Chains of reduced parts whose joins cancel: w, invert(w) and
# u, w, invert(w), invert(u) cancel across whole parts.
CHAINS = st.lists(
    st.one_of(
        words().map(lambda w: [w]),
        words().map(lambda w: [w, invert(w)]),
        st.tuples(words(), words()).map(lambda uw: [uw[0], uw[1], invert(uw[1]), invert(uw[0])]),
    ),
    max_size=5,
).map(lambda groups: [part for group in groups for part in group])


class TestAlgebraicLaws:
    def test_concat_inverse_cancels(self):
        w = parse_word("a^2 b^-1 a")
        assert concat(w, invert(w)) == ()
        assert concat(invert(w), w) == ()

    def test_conjugate_of_identity(self):
        assert conjugate(parse_word("a b"), ()) == ()

    def test_gen_power_zero_is_identity(self):
        assert gen_power(GEN_A, 0) == ()

    def test_letter_length(self):
        assert letter_length(()) == 0
        assert letter_length(parse_word("a^2 b^-3")) == 5

    @given(CHAINS)
    def test_concat_joins_only_at_the_boundaries(self, parts):
        assert concat(*parts) == word_from_syllables(chain(*parts))

    def test_concat_cancels_through_several_parts(self):
        u, w = parse_word("a^2 b^-1"), parse_word("b^3 a")
        assert concat(u, w, invert(w), invert(u)) == ()
        assert concat(u, w, invert(w), parse_word("b a^2")) == parse_word("a^2 a^2")
        assert concat(w, parse_word("a^-1 b^-2")) == parse_word("b")

    @given(words(), words(), words())
    def test_concat_associative(self, u, v, w):
        assert concat(concat(u, v), w) == concat(u, concat(v, w))

    @given(words())
    def test_invert_is_involution(self, w):
        assert invert(invert(w)) == w

    @given(words(), words())
    def test_invert_antihomomorphism(self, u, v):
        assert invert(concat(u, v)) == concat(invert(v), invert(u))

    @given(words())
    def test_format_parse_roundtrip(self, w):
        assert parse_word(format_word(w)) == w

    @given(syllable_lists())
    def test_word_from_syllables_output_is_reduced(self, sylls):
        w = word_from_syllables(sylls)
        assert all(exp != 0 for _, exp in w)
        assert all(w[i][0] != w[i + 1][0] for i in range(len(w) - 1))

    @given(words(max_syllables=4), words(max_syllables=4))
    def test_concat_matches_syllable_semantics(self, u, v):
        assert concat(u, v) == word_from_syllables(list(u) + list(v))


class TestEnumeration:
    def test_counts_match_closed_form(self):
        # 4 * 3^(L-1) freely reduced words of each length L >= 1.
        ball = list(enumerate_reduced(5))
        assert len(ball) == 1 + sum(4 * 3 ** (L - 1) for L in range(1, 6))
        by_len = {}
        for w in ball:
            by_len[letter_length(w)] = by_len.get(letter_length(w), 0) + 1
        assert by_len == {0: 1, 1: 4, 2: 12, 3: 36, 4: 108, 5: 324}

    def test_radius_eight_cardinality(self):
        assert sum(1 for _ in enumerate_reduced(8)) == 13121

    def test_all_enumerated_words_are_reduced_and_distinct(self):
        ball = list(enumerate_reduced(4))
        assert len(set(ball)) == len(ball)
        for w in ball:
            assert w == word_from_syllables(w)

    def test_length_then_lex_order(self):
        names = [format_word(w) for w in enumerate_reduced(1)]
        assert names == ["1", "a", "a^-1", "b", "b^-1"]

    def test_negative_max_len_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_reduced(-1))


class TestGallop:
    @given(st.integers(min_value=0, max_value=5000))
    def test_log_calls_linear_work_disjoint_periods(self, k):
        tried, accepted = [], []

        def extends(i, c):
            tried.append(c)
            if i + c <= k:
                accepted.extend(range(i, i + c))
                return True
            return False

        assert gallop(extends) == k
        assert len(tried) <= 2 * k.bit_length() + 1
        assert sum(tried) <= 4 * k + 4
        assert accepted == list(range(k))


class TestSignPredicates:
    def test_one_signed(self):
        assert is_one_signed(())
        assert is_one_signed(parse_word("a^2 b^3"))
        assert is_one_signed(parse_word("a^-1 b^-2"))
        assert not is_one_signed(parse_word("a b^-1"))

    def test_positive_word(self):
        assert not is_positive_word(())
        assert is_positive_word(parse_word("a b^2"))
        assert not is_positive_word(parse_word("a^-1"))

    @given(words())
    def test_one_signed_respects_inverse(self, w):
        assert is_one_signed(w) == is_one_signed(invert(w))
