"""Sign trichotomy: verdicts, one-signed witnesses, handle expansion."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import trivial_words, words
from heckeord import cone
from heckeord.cone import ReductionStuck, Sign, SignResult, decide_sign, expand_handle
from heckeord.context import group_context
from heckeord.normalform import NormalForm, to_normal_form
from heckeord.oracle import oracle_is_identity
from heckeord.words import (
    GEN_A,
    GEN_B,
    concat,
    format_word,
    gen_power,
    invert,
    is_one_signed,
    parse_word,
    word_from_syllables,
)

CTX2 = group_context(2)
FLIP = {Sign.POSITIVE: Sign.NEGATIVE, Sign.NEGATIVE: Sign.POSITIVE, Sign.IDENTITY: Sign.IDENTITY}


def verdict_of(text: str, ctx=CTX2) -> str:
    return decide_sign(parse_word(text), ctx).verdict.value


class TestVerdictAnchors:
    def test_identity(self):
        r = decide_sign((), CTX2)
        assert r.verdict is Sign.IDENTITY
        assert r.witness == ()

    def test_generators_positive(self):
        assert verdict_of("a") == "positive"
        assert verdict_of("b") == "positive"

    def test_inverse_generators_negative(self):
        assert verdict_of("a^-1") == "negative"
        assert verdict_of("b^-1") == "negative"

    def test_relator_collapses_to_identity(self):
        for n in (1, 2, 3, 5):
            ctx = group_context(n)
            w = concat(parse_word(f"b a^{n} b"), parse_word("a^-1"))
            assert decide_sign(w, ctx).verdict is Sign.IDENTITY

    def test_handle_word_is_negative(self):
        # a b a^-1 = (a^-(n-1) b^-1) at n=2: a mixed word with negative sign.
        r = decide_sign(parse_word("a b a^-1"), CTX2)
        assert r.verdict is Sign.NEGATIVE
        assert r.witness == parse_word("a^-1 b^-1")

    def test_b_negative_powers(self):
        r = decide_sign(parse_word("b^-2"), CTX2)
        assert r.verdict is Sign.NEGATIVE
        assert format_word(r.witness) == "b^-2"

    def test_commutator_is_negative_at_n2(self):
        r = decide_sign(parse_word("a b a^-1 b^-1"), CTX2)
        assert r.verdict is Sign.NEGATIVE
        assert is_one_signed(r.witness)

    def test_central_powers(self):
        assert verdict_of("a^3") == "positive"  # delta
        assert verdict_of("a^-3") == "negative"

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_mixed_but_positive(self, n):
        # b^-1 a = (a^-1 b)^-1; and a b^-1 needs an actual cascade at n >= 2.
        ctx = group_context(n)
        r = decide_sign(parse_word("b^-1 a"), ctx)
        assert r.verdict in (Sign.POSITIVE, Sign.NEGATIVE)
        assert oracle_is_identity(
            concat(invert(parse_word("b^-1 a")), r.witness), ctx
        )


class TestSignResultType:
    """SignResult is a named tuple: immutable, hashable, equal by its
    fields, built by position or keyword, with a dataclass-style repr."""

    def test_fields_cannot_be_assigned(self):
        r = decide_sign(parse_word("a b a^-1"), CTX2)
        for field in ("verdict", "witness", "steps"):
            with pytest.raises(AttributeError):
                setattr(r, field, None)
        with pytest.raises(AttributeError):
            r.other = 1

    def test_equality_hash_and_construction(self):
        r = decide_sign(parse_word("a b a^-1"), CTX2)
        same = SignResult(steps=r.steps, witness=parse_word("a^-1 b^-1"), verdict=Sign.NEGATIVE)
        assert r == same and hash(r) == hash(same)
        assert r != SignResult(Sign.NEGATIVE, r.witness, r.steps + 1)
        assert r != SignResult(Sign.POSITIVE, r.witness, r.steps)
        verdict, witness, steps = r
        assert (verdict, witness, steps) == (r.verdict, r.witness, r.steps)
        assert repr(SignResult(Sign.IDENTITY, (), 0)) == "SignResult(verdict=<Sign.IDENTITY: 'identity'>, witness=(), steps=0)"

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_nonnegative_ell_keeps_the_prefix(self, n):
        # ell = 0 returns the prefix itself; ell > 0 appends (or merges)
        # one a^(q ell), as concat with a^(q ell) would.
        ctx = group_context(n)
        for prefix in ((), ((GEN_B, 2),), ((GEN_B, 1), (GEN_A, 1))):
            for ell in (0, 1, 3):
                r = cone.sign_pass(NormalForm(prefix, ell), ctx)
                assert r.witness == concat(prefix, gen_power(GEN_A, ctx.q * ell))
                assert r.verdict is (Sign.POSITIVE if r.witness else Sign.IDENTITY) and r.steps == 0
            assert cone.sign_pass(NormalForm(prefix, 0), ctx).witness is prefix


class TestCascadeCheck:
    def test_witness_that_is_not_one_signed_raises(self, monkeypatch):
        # The final all-negative check is real code, so it also runs under -O.
        monkeypatch.setattr(cone, "is_one_signed", lambda word: False)
        with pytest.raises(ReductionStuck, match="not all-negative"):
            decide_sign(parse_word("a b a^-1"), CTX2)


def sigma(prefix, n):
    """The prefix with every b^k spelled a^-1 (a^-(n-1) b^-1)^k a, which is
    b^k by the identity a b^k a^-1 = (a^-(n-1) b^-1)^k."""
    parts = []
    for gen, exp in prefix:
        if gen == GEN_A:
            parts.append(((GEN_A, exp),))
        else:
            spelled = [(GEN_A, -1), *[(GEN_A, 1 - n), (GEN_B, -1)] * exp, (GEN_A, 1)]
            parts.append(word_from_syllables(spelled))
    return concat(*parts)


class TestForcedMoves:
    """The sign pass feeds once and then makes one move per prefix
    syllable; its steps and its witness match closed forms built here
    with concat, apart from the pass."""

    @settings(max_examples=150)
    @given(st.data())
    def test_steps_and_witness_closed_forms(self, data):
        n = data.draw(st.integers(min_value=1, max_value=63), label="n")
        ctx = group_context(n)
        u, v = data.draw(words(max_syllables=8), label="u"), data.draw(words(max_syllables=8), label="v")
        t = data.draw(st.integers(min_value=1, max_value=300), label="t")
        trivial = data.draw(st.one_of(st.just(()), trivial_words(n)), label="trivial")
        w = concat(u, trivial, ((GEN_B, -t),), v)
        if data.draw(st.booleans(), label="inverted"):
            w = invert(w)
        nf = to_normal_form(w, ctx)
        r = decide_sign(w, ctx)
        if r.steps == 0:
            assert nf.ell >= 0 or not nf.prefix
            return
        assert r.verdict is Sign.NEGATIVE
        assert r.steps == 1 + len(nf.prefix)
        assert r.witness == concat(sigma(nf.prefix, n), gen_power(GEN_A, ctx.q * nf.ell))

    @pytest.mark.parametrize("n", [1, 2, 3, 63])
    @pytest.mark.parametrize(
        "prefix",
        [
            pytest.param(lambda n: ((GEN_B, 1), (GEN_A, n), (GEN_B, 1)), id="b-a^n-b"),
            pytest.param(lambda n: ((GEN_A, n + 2),), id="a^(n+2)"),
            pytest.param(lambda n: ((GEN_B, 1), (GEN_A, n + 1)), id="b-a^(n+1)"),
        ],
    )
    def test_reducible_prefix_raises(self, monkeypatch, n, prefix):
        # A prefix the normal form never returns lets the pending
        # a-exponent exceed n, so the pass writes a positive a-block: the
        # final check must refuse it, not return a mixed witness.
        monkeypatch.setattr(cone, "to_normal_form", lambda word, ctx: NormalForm(prefix(n), -1))
        with pytest.raises(ReductionStuck):
            decide_sign(parse_word("a"), group_context(n))


class TestExpandHandle:
    def test_zero_is_empty(self):
        assert expand_handle(0, CTX2) == ()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            expand_handle(-1, CTX2)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_equals_conjugated_b_power(self, n, j):
        # a b^j a^-1 = (a^-(n-1) b^-1)^j, the engine of the sign cascade.
        ctx = group_context(n)
        lhs = concat(gen_power(GEN_A, 1), gen_power(GEN_B, j), gen_power(GEN_A, -1))
        rhs = expand_handle(j, ctx)
        assert oracle_is_identity(concat(lhs, invert(rhs)), ctx)
        assert is_one_signed(rhs) and (not rhs or rhs[0][1] < 0)

    def test_degenerate_shape_at_n1(self):
        assert expand_handle(3, group_context(1)) == ((GEN_B, -3),)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
class TestTrichotomyProperties:
    @settings(max_examples=60)
    @given(words())
    def test_witness_is_one_signed_and_group_equal(self, n, w):
        ctx = group_context(n)
        r = decide_sign(w, ctx)
        assert is_one_signed(r.witness)
        if r.verdict is Sign.IDENTITY:
            assert r.witness == ()
        else:
            want_positive = r.verdict is Sign.POSITIVE
            assert (r.witness[0][1] > 0) == want_positive
        assert oracle_is_identity(concat(invert(w), r.witness), ctx)

    @settings(max_examples=60)
    @given(words())
    def test_verdict_mirrors_under_inverse(self, n, w):
        ctx = group_context(n)
        assert decide_sign(invert(w), ctx).verdict is FLIP[decide_sign(w, ctx).verdict]

    @settings(max_examples=40)
    @given(words(max_syllables=3), words(max_syllables=3))
    def test_positive_cone_is_a_semigroup(self, n, u, v):
        ctx = group_context(n)
        if (
            decide_sign(u, ctx).verdict is Sign.POSITIVE
            and decide_sign(v, ctx).verdict is Sign.POSITIVE
        ):
            assert decide_sign(concat(u, v), ctx).verdict is Sign.POSITIVE


class TestTrichotomyAgainstOracleForAllN:
    @settings(max_examples=150)
    @given(st.data())
    def test_verdict_witness_and_mirror(self, data):
        # w is a random word or a disguised central power t * delta^k, t a
        # product of relator conjugates: the IDENTITY verdict (k = 0) and
        # the central coordinate the projective matrix cannot see (k != 0)
        # both come up at every n in 1..63.
        n = data.draw(st.integers(min_value=1, max_value=63), label="n")
        ctx = group_context(n)
        central = st.tuples(
            trivial_words(n, conjugates=3, max_syllables=5), st.integers(min_value=-2, max_value=2)
        ).map(lambda tk: concat(tk[0], gen_power(GEN_A, tk[1] * ctx.q)))
        w = data.draw(st.one_of(words(max_syllables=40), central), label="w")
        r = decide_sign(w, ctx)
        assert (r.verdict is Sign.IDENTITY) == oracle_is_identity(w, ctx)
        assert oracle_is_identity(concat(invert(w), r.witness), ctx)
        assert decide_sign(invert(w), ctx).verdict is FLIP[r.verdict]
