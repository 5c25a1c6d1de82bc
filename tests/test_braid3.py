"""Three-strand braids: bridge, handle reduction, cone certificates."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from heckeord import braid3
from heckeord.braid3 import (
    CertificateError,
    ConeRegion,
    S1,
    S2,
    ab_to_sigma,
    cone_certify_b3,
    dehornoy_reduce,
    format_sigma,
    is_d_positive,
    parse_sigma,
    sigma_to_ab,
)
from heckeord.cone import Sign, decide_sign
from heckeord.context import group_context
from heckeord.oracle import oracle_is_identity, rho
from heckeord.orderings import DehornoyLike, is_positive
from heckeord.algebra import mat_identity, mat_neg
from heckeord.context import ring_of
from heckeord.normalform import NormalForm, to_normal_form
from heckeord.words import (
    GEN_A,
    GEN_B,
    SIGNED_LETTERS,
    concat,
    enumerate_reduced,
    invert,
    parse_word,
    word_from_syllables,
)

import reference_braid3
from conftest import positive_words, trivial_words
from reference_braid3 import (
    ABAR,
    BBAR,
    imat_mul,
    integer_model,
    reference_cone_certify_b3,
    reference_cyclic_reduce,
    reference_dehornoy_reduce,
)

CTX2 = group_context(2)
U, V = ConeRegion.U, ConeRegion.V
POSITIVE_SYLLABLES = st.tuples(st.sampled_from([GEN_A, GEN_B]), st.integers(1, 4))


class TestMatrixAnchors:
    """The same two anchor identities in both exact realizations."""

    def test_integer_matrices(self):
        a3 = imat_mul(imat_mul(ABAR, ABAR), ABAR)
        assert a3 == (-1, 0, 0, -1)  # abar^3 = -I: projective order 3
        bab = imat_mul(imat_mul(BBAR, imat_mul(ABAR, ABAR)), BBAR)
        assert bab == ABAR  # bbar abar^2 bbar = abar, exactly

    def test_ring_matrices(self):
        ring = ring_of(CTX2)
        ident = mat_identity(ring)
        assert rho(parse_word("a^3"), CTX2) == mat_neg(ring, ident)  # like abar^3
        assert rho(parse_word("b a^2 b a^-1"), CTX2) == ident  # exact, not just projective

    def test_realizations_are_distinct_but_agree_projectively_on_the_relator(self):
        # Two different matrix models of the same group: entries differ...
        ring = ring_of(CTX2)
        rho_a = rho(parse_word("a"), CTX2)
        assert [c[0] for c in rho_a] != list(ABAR)
        # ...but both kill a^3 projectively (checked above) and both are
        # determinant-1 integer models at n = 2.
        det = ABAR[0] * ABAR[3] - ABAR[1] * ABAR[2]
        assert det == 1
        assert BBAR[0] * BBAR[3] - BBAR[1] * BBAR[2] == 1


class TestBridge:
    def test_generator_dictionary(self):
        assert sigma_to_ab(parse_sigma("s1")) == parse_word("a b")
        assert sigma_to_ab(parse_sigma("s2")) == parse_word("b^-1")
        assert ab_to_sigma(parse_word("a")) == parse_sigma("s1 s2")
        assert ab_to_sigma(parse_word("b")) == parse_sigma("s2^-1")
        assert sigma_to_ab(()) == ()
        assert ab_to_sigma(()) == ()

    def test_braid_relation_maps_to_a_relation(self):
        rel = parse_sigma("s1 s2 s1 s2^-1 s1^-1 s2^-1")
        assert oracle_is_identity(sigma_to_ab(rel), CTX2)

    def test_roundtrip_is_identity_in_the_group(self):
        for text in ("a b a^-1", "b^-2 a", "a^3", "b a b"):
            w = parse_word(text)
            back = sigma_to_ab(ab_to_sigma(w))
            assert oracle_is_identity(concat(invert(w), back), CTX2), text

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.sampled_from([S1, S2]),
                              st.integers(-3, 3).filter(bool)), max_size=5))
    def test_roundtrip_random(self, sylls):
        sw = word_from_syllables(sylls)
        image = sigma_to_ab(sw)
        back = ab_to_sigma(image)
        # sigma-level equality via bridging the difference:
        assert oracle_is_identity(
            concat(invert(image), sigma_to_ab(back)), CTX2
        )


class TestHandleReduction:
    def test_no_handles_fixpoint(self):
        assert dehornoy_reduce(parse_sigma("s2^3")) == parse_sigma("s2^3")
        assert dehornoy_reduce(parse_sigma("s1^4")) == parse_sigma("s1^4")

    def test_braid_relator_reduces_to_empty(self):
        assert dehornoy_reduce(parse_sigma("s1 s2 s1 s2^-1 s1^-1 s2^-1")) == ()

    def test_single_handle(self):
        out = dehornoy_reduce(parse_sigma("s1 s2 s1^-1"))
        assert out == parse_sigma("s2^-1 s1 s2")

    def reduced_is_handle_free(self, sw):
        signs = {1 if e > 0 else -1 for g, e in sw if g == S1}
        return len(signs) <= 1

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.sampled_from([S1, S2]),
                              st.integers(-2, 2).filter(bool)), max_size=6))
    def test_reduce_preserves_the_braid_and_strips_handles(self, sylls):
        sw = word_from_syllables(sylls)
        out = dehornoy_reduce(sw)
        assert self.reduced_is_handle_free(out)
        diff = concat(sigma_to_ab(sw), invert(sigma_to_ab(out)))
        assert oracle_is_identity(diff, CTX2)


class TestDPositivity:
    def test_anchors(self):
        assert is_d_positive(parse_sigma("s2^5"))
        assert not is_d_positive(parse_sigma("s2^-1"))
        assert is_d_positive(parse_sigma("s1 s2^-3"))
        assert not is_d_positive(())
        assert not is_d_positive(parse_sigma("s1^-1 s2^3"))

    def test_matches_flipped_order_on_small_ball(self):
        for sw in enumerate_reduced(4):
            expected = is_positive(sigma_to_ab(sw), DehornoyLike(), CTX2)
            assert is_d_positive(sw) == expected, format_sigma(sw)


@st.composite
def reduced_words(draw, min_letters, max_letters):
    """A freely reduced word of min_letters..max_letters letters: each
    letter after the first is one of the three that do not cancel."""
    size = draw(st.integers(min_letters, max_letters))
    letters = [draw(st.sampled_from(SIGNED_LETTERS))]
    for byte in draw(st.binary(min_size=size - 1, max_size=size - 1)):
        gen, exp = letters[-1]
        letters.append([x for x in SIGNED_LETTERS if x != (gen, -exp)][byte % 3])
    return word_from_syllables(letters)


# 100-1,000 letters; the last two kinds hold a product of relator
# conjugates, and the last one is the identity.
LONG_WORDS = st.one_of(
    reduced_words(100, 1000),
    st.tuples(reduced_words(50, 480), trivial_words(2), reduced_words(50, 480)).map(lambda t: concat(*t)),
    st.tuples(reduced_words(50, 480), trivial_words(2)).map(lambda t: concat(t[0], t[1], invert(t[0]))),
)


class TestHandleReductionAgainstReference:
    """dehornoy_reduce, which edits its syllable list in place, against the
    old loop that rebuilt the word after every move
    (tests/reference_braid3.py): the same reduced words, and one
    word_from_syllables call per move, which is how the benchmark's
    tracer counts the moves."""

    def test_same_reductions_on_the_radius_7_ball(self):
        for w in enumerate_reduced(7):
            assert dehornoy_reduce(w) == reference_dehornoy_reduce(w), format_sigma(w)

    @given(st.one_of(
        reduced_words(1, 1000),
        st.lists(st.tuples(st.sampled_from([S1, S2]), st.integers(-3, 3).filter(bool)), max_size=400).map(word_from_syllables),
    ))
    def test_same_reductions_on_random_words(self, w):
        assert dehornoy_reduce(w) == reference_dehornoy_reduce(w)

    @pytest.mark.parametrize("text", [
        "s1 s2 s1^-1",
        "s1 s2 s1^-1 s2^-1 s1 s2^2 s1^-2",
        "s2 s1^2 s2^-1 s1^-1 s2^3 s1^-1 s2 s1",
        "s1^-1 s2^2 s1 s2^-1 s1^-2",
    ])
    def test_one_rebuild_per_move(self, monkeypatch, text):
        calls = {"package": 0, "reference": 0}

        def counting(side):
            def count(syllables):
                calls[side] += 1
                return word_from_syllables(syllables)
            return count

        monkeypatch.setattr(braid3, "word_from_syllables", counting("package"))
        monkeypatch.setattr(reference_braid3, "word_from_syllables", counting("reference"))
        w = parse_sigma(text)
        assert dehornoy_reduce(w) == reference_dehornoy_reduce(w)
        assert calls["package"] == calls["reference"] > 0


class TestThreeWayOnLongWords:
    """G_2 is B_3: the dlike order, handle reduction and the sign pass
    must agree, and handle reduction shares no code with the other two."""

    @settings(max_examples=100)
    @given(LONG_WORDS)
    def test_dlike_handle_reduction_and_sign_agree(self, w):
        sigma_word = ab_to_sigma(w)
        assert is_positive(w, DehornoyLike(), CTX2) == is_d_positive(sigma_word)
        assert (dehornoy_reduce(sigma_word) == ()) == (decide_sign(w, CTX2).verdict is Sign.IDENTITY)


class TestConeCertificates:
    def test_anchor_certificates(self):
        assert cone_certify_b3(parse_word("a")) == (V, U)
        assert cone_certify_b3(parse_word("a^2")) == (U, V)
        for j in range(1, 6):
            assert cone_certify_b3(parse_word(f"b^{j}")) == (U, V)

    def test_central_factors_are_ignored(self):
        # a^6 b = delta^2 b has the same projective image as b.
        assert cone_certify_b3(parse_word("a^6 b")) == (U, V)

    def test_exceptional_classes_get_no_certificate(self):
        assert cone_certify_b3(parse_word("a^3")) is None  # delta: central
        assert cone_certify_b3(parse_word("a b")) is None  # sigma_1 power
        assert cone_certify_b3(parse_word("a b a b")) is None
        assert cone_certify_b3(parse_word("a^2 b")) is None  # half twist
        assert cone_certify_b3(parse_word("b a^2")) is None  # its conjugate

    def test_mixed_word_certificate(self):
        cert = cone_certify_b3(parse_word("a b^2"))
        assert cert == (U, V)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            cone_certify_b3(parse_word("a^-1 b"))

    def test_certificates_imply_projective_nontriviality(self):
        ring = ring_of(CTX2)
        plus_minus_identity = (mat_identity(ring), mat_neg(ring, mat_identity(ring)))
        certified = 0
        for w in positive_words(6):
            cert = cone_certify_b3(w)
            if cert is not None:
                certified += 1
                assert rho(w, CTX2) not in plus_minus_identity, w
                assert not oracle_is_identity(w, CTX2)
        assert certified > 50  # the certificate covers most of the ball


def certificate_or_error(certify, word):
    try:
        return certify(word)
    except Exception as exc:  # compared by type with the reference
        return type(exc)


def assert_same_cyclic_reduction(w):
    prefix = to_normal_form(w, CTX2).prefix
    got = braid3._cyclic_reduce(prefix)
    expected = tuple(map(tuple, reference_cyclic_reduce([list(s) for s in prefix])))
    assert len(got) == len(expected), w
    assert any(expected[i:] + expected[:i] == got for i in range(max(len(got), 1))), w


class TestAgainstReference:
    """The certificate on rho and to_normal_form against the old integer
    model and block-list cyclic rewriting (tests/reference_braid3.py)."""

    @settings(max_examples=200)
    @given(st.lists(POSITIVE_SYLLABLES, max_size=30).map(word_from_syllables))
    def test_swapped_rho_is_the_integer_model(self, w):
        assert tuple(x for (x,) in reversed(rho(w, CTX2))) == integer_model(w)

    def test_own_ray_test_is_the_packages(self):
        # The reference's cross-product cone test against braid3's rays, on
        # every integer matrix with entries in -2..2 and every region pair.
        entries = range(-2, 3)
        for m in itertools.product(entries, repeat=4):
            for source, target in itertools.product(ConeRegion, repeat=2):
                assert reference_braid3.maps_into(m, source, target) == braid3._certified(m, source, target), (m, source, target)

    def test_same_certificate_on_every_positive_word_up_to_12_letters(self):
        words = list(positive_words(12))
        assert len(words) == 8191
        for w in words:
            expected = certificate_or_error(reference_cone_certify_b3, w)
            assert certificate_or_error(cone_certify_b3, w) == expected, w

    @settings(max_examples=150)
    @given(st.lists(POSITIVE_SYLLABLES, max_size=200).map(word_from_syllables))
    def test_same_cyclic_reduction_up_to_rotation(self, w):
        assert_same_cyclic_reduction(w)

    def test_same_cyclic_reduction_on_short_words(self):
        # Below 6 letters every rotation is tried; a^2 b^2, a^2 b a b and
        # a^2 b^3 need that.
        for w in positive_words(8):
            assert_same_cyclic_reduction(w)


class TestRealChecks:
    """Each check raises CertificateError, also under python -O."""

    @pytest.mark.parametrize("text", ["a", "a^2", "b^3", "b a b^2 a"])
    def test_failed_ray_check_raises(self, monkeypatch, text):
        monkeypatch.setattr(braid3, "_certified", lambda m, source, target: False)
        with pytest.raises(CertificateError, match="does not map"):
            cone_certify_b3(parse_word(text))

    def test_negative_central_exponent_raises(self, monkeypatch):
        monkeypatch.setattr(braid3, "to_normal_form", lambda word, ctx: NormalForm((), -1))
        with pytest.raises(CertificateError, match="central exponent"):
            cone_certify_b3(parse_word("b^3"))

    def test_mixed_word_with_a_squared_raises(self, monkeypatch):
        monkeypatch.setattr(braid3, "_cyclic_reduce", lambda word: ((GEN_A, 2), (GEN_B, 2)))
        with pytest.raises(CertificateError, match="a-exponent"):
            cone_certify_b3(parse_word("b^3"))

    def test_two_signed_handle_free_word_raises(self, monkeypatch):
        monkeypatch.setattr(braid3, "dehornoy_reduce", lambda word: parse_sigma("s1 s2 s1^-1"))
        with pytest.raises(CertificateError, match="both signs"):
            is_d_positive(parse_sigma("s1"))
