"""Sign trichotomy: verdicts, one-signed witnesses, handle expansion."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import relator, trivial_words, words
from heckeord import cone, normalform, orderings, suites
from heckeord.cone import ReductionStuck, Sign, SignResult, decide_sign, expand_handle, verdict
from heckeord.context import group_context
from heckeord.normalform import START, NormalForm, resume, to_normal_form
from heckeord.oracle import CUT, link_syllables, oracle_chain, oracle_equal, oracle_is_identity
from heckeord.words import (
    GEN_A,
    GEN_B,
    RewriteLimitError,
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

    @pytest.mark.parametrize("prefix, ell", [(((GEN_B, -1),), 0), (((GEN_A, 1), (GEN_B, 0)), -1)])
    def test_sign_pass_refuses_a_plain_pair(self, prefix, ell):
        # Handed as a plain pair, the first read POSITIVE with the witness
        # b^-1 and the second NEGATIVE: only NormalForm checks the prefix.
        with pytest.raises(TypeError, match="^sign_pass takes a NormalForm, not tuple$"):
            cone.sign_pass((prefix, ell), CTX2)
        with pytest.raises(ReductionStuck, match="not a positive word"):
            cone.sign_pass(NormalForm(prefix, ell), CTX2)


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


class TestVerdict:
    """cone.verdict reads the sign off the normal form, as sign_pass's
    verdict, after checking the prefix; it never writes a witness."""

    @given(st.data())
    def test_equals_the_sign_pass_verdict(self, data):
        n = data.draw(st.one_of(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=63)), label="n")
        ctx = group_context(n)
        stack, ell, _ = resume(START, data.draw(words(max_syllables=12), label="w"), ctx)
        ell += data.draw(st.integers(min_value=-2, max_value=2), label="shift")  # u * delta^ell for any ell
        expected = cone.sign_pass(NormalForm(tuple(stack), ell), ctx).verdict
        assert verdict(stack, ell, ctx) is verdict(tuple(stack), ell, ctx) is expected

    @pytest.mark.parametrize("n", [1, 2, 3, 63])
    def test_irreducible_bounds_are_accepted(self, n):
        # a^n at either end and a^(n-1) between two b's are the largest
        # a-exponents an irreducible prefix holds.
        middle = ((GEN_B, 1), (GEN_A, n - 1), (GEN_B, 3)) if n > 1 else ((GEN_B, 4),)
        prefix = ((GEN_A, n), *middle, (GEN_A, n))
        ctx = group_context(n)
        for ell, sign in ((-1, Sign.NEGATIVE), (0, Sign.POSITIVE), (2, Sign.POSITIVE)):
            assert verdict(prefix, ell, ctx) is sign is cone.sign_pass(NormalForm(prefix, ell), ctx).verdict
        assert [verdict((), ell, ctx) for ell in (-1, 0, 1)] == [Sign.NEGATIVE, Sign.IDENTITY, Sign.POSITIVE]

    @pytest.mark.parametrize("n", [1, 2, 3, 63])
    @pytest.mark.parametrize(
        "prefix, ells",
        [
            pytest.param(lambda n: ((GEN_B, 1), (GEN_A, n), (GEN_B, 1)), (-1,), id="interior-a^n"),
            pytest.param(lambda n: ((GEN_A, n + 1),), (-1,), id="a^(n+1)"),
            pytest.param(lambda n: ((GEN_B, 2), (GEN_A, n + 1)), (-1,), id="b-a^(n+1)"),
            pytest.param(lambda n: ((GEN_B, 1), (GEN_A, 1), (GEN_A, 1)), (-1,), id="adjacent-a"),
            pytest.param(lambda n: ((GEN_B, 1), (GEN_B, 1)), (-1,), id="adjacent-b"),
            pytest.param(lambda n: ((GEN_A, 1), (GEN_B, 0)), (-1, 0, 1), id="zero-exponent"),
            pytest.param(lambda n: ((GEN_B, -1), (GEN_A, 1)), (-1, 0, 1), id="negative-exponent"),
        ],
    )
    def test_planted_bad_prefix_raises(self, n, prefix, ells):
        for ell in ells:
            with pytest.raises(ReductionStuck):
                verdict(prefix(n), ell, group_context(n))

    def test_check_survives_python_O(self):
        code = (
            "from heckeord.cone import ReductionStuck, verdict\n"
            "from heckeord.context import group_context\n"
            "assert False, 'asserts run'\n"
            "try:\n"
            "    verdict(((1, 1), (0, 2), (1, 1)), -1, group_context(2))\n"
            "except ReductionStuck:\n"
            "    print('raised')\n"
        )
        src = str(Path(cone.__file__).resolve().parent.parent)
        child = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert (child.returncode, child.stdout) == (0, "raised\n"), child.stderr

    def test_order_decisions_write_no_witness(self, monkeypatch):
        # Scans, is_positive, compare, converge and the Cayley export make
        # no sign_pass call; decide_sign, the control, makes one.
        calls, real = [0], cone.sign_pass

        def counted(nf, ctx):
            calls[0] += 1
            return real(nf, ctx)

        monkeypatch.setattr(cone, "sign_pass", counted)
        monkeypatch.setattr(suites, "sign_pass", counted)
        dlike = orderings.DehornoyLike()
        for spec in (orderings.DD(), dlike, orderings.Conjugated(dlike, parse_word("b a"))):
            orderings.smallest_positive_in_ball(spec, CTX2, 4)
            orderings.is_positive(parse_word("a^-1 b a"), spec, CTX2)
            orderings.compare(parse_word("a b"), parse_word("b^-2 a"), spec, CTX2)
        orderings.convexity_check(CTX2, 4)
        orderings.convergence_experiment(CTX2, (parse_word("b^-1"),), 3)
        suites.export_cayley_ball(CTX2, 3, "json")
        assert calls == [0]
        decide_sign(parse_word("a b^-1"), CTX2)
        assert calls == [1]


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


def assert_cuts_hold(word, ctx, cut):
    """certify_sign's result is decide_sign's, its interior cuts tile word
    and witness between the chain's two ends with every z at most cut
    syllables long, each claim holds on its own, and oracle_chain accepts
    them.  Returns the number of interior cuts."""
    result, cuts = cone.certify_sign(word, ctx, cut)
    assert result == decide_sign(word, ctx)
    witness = result.witness
    chain = [(0, 0, ()), *cuts, (len(word), len(witness), ())]
    for (k, p, _), (k_next, p_next, z) in zip(chain, chain[1:]):
        assert (k < k_next or not word) and p <= p_next and len(z) <= cut
    for k, p, z in cuts:
        assert oracle_equal(word[:k], witness[:p] + z, ctx), (k, p, z)
    assert oracle_chain(word, witness, cuts, ctx)
    return len(cuts)


class WatchedStack(list):
    """A list that records the lowest index at which it is popped,
    deleted, assigned or appended to (an append writes at its length),
    whatever the index."""

    def __init__(self, items):
        super().__init__(items)
        self.low = len(self)

    def _write(self, i):
        self.low = min(self.low, i + len(self) if i < 0 else i)

    def pop(self, i=-1):
        self._write(i)
        return super().pop(i)

    def __delitem__(self, i):
        self._write(i)
        super().__delitem__(i)

    def __setitem__(self, i, x):
        self._write(i)
        super().__setitem__(i, x)

    def append(self, x):
        self._write(len(self))
        super().append(x)

    def extend(self, xs):
        xs = list(xs)
        if xs:
            self._write(len(self))
        super().extend(xs)

    def __iadd__(self, xs):
        self.extend(xs)
        return self


@given(
    st.integers(min_value=1, max_value=63),
    words(max_syllables=12, max_exp=300),
    words(max_syllables=6, max_exp=300),
)
def test_the_cut_stack_records_the_lowest_height_written(n, u, v):
    # stack_checkpoints' list records the lowest height at which the stack
    # pass wrote over v; a list that records every write, at any index,
    # agrees, so the pass writes nowhere the cut stack does not see.
    ctx = group_context(n)
    before = resume(START, u, ctx)
    watched, stack = WatchedStack(before[0]), normalform._Stack(before[0])
    stack.low = len(stack)
    assert normalform._push(stack, before[1], before[2], v, ctx)[1:] == normalform._push(watched, before[1], before[2], v, ctx)[1:]
    assert stack == watched and stack.low == watched.low


@given(st.integers(min_value=1, max_value=63), words(max_syllables=12), st.data())
def test_the_sign_pass_claims_hold_at_every_stop(n, w, data):
    # Both branches, the pass (ell < 0, a nonempty prefix) and the bare
    # feed, claim u[:m] = witness[:p] * y at each stop m, y short.
    ctx = group_context(n)
    nf = to_normal_form(w, ctx)
    stops = tuple(sorted(data.draw(st.lists(st.integers(0, len(nf.prefix)), max_size=4), label="stops")))
    claims = []
    witness = cone.sign_pass(nf, ctx, stops, claims).witness
    assert len(claims) == len(stops) + (nf.ell < 0 and bool(nf.prefix))
    for stop, (p, y) in zip(stops, claims):
        assert 0 <= p <= len(witness) and len(y) <= 2
        assert oracle_equal(nf.prefix[:stop], concat(witness[:p], y), ctx)


class TestCertify:
    """The cuts certify_sign makes verify, on the shapes that stress the
    stack pass: trivial words, u b^-t v, relator sandwiches, and n = 1."""

    @settings(max_examples=150)
    @given(st.data())
    def test_trivial_words(self, data):
        n = data.draw(st.integers(min_value=1, max_value=63), label="n")
        w = data.draw(trivial_words(n, conjugates=4, max_syllables=6), label="w")
        assert_cuts_hold(w, group_context(n), data.draw(st.integers(1, 6), label="cut"))

    @settings(max_examples=80)
    @given(
        st.integers(min_value=1, max_value=63),
        words(max_syllables=20),
        st.integers(min_value=1, max_value=10_000),
        words(max_syllables=20),
        st.integers(1, 8),
    )
    def test_long_b_powers(self, n, u, t, v, cut):
        assert_cuts_hold(concat(u, ((GEN_B, -t),), v), group_context(n), cut)

    @pytest.mark.parametrize("n", [1, 2, 7, 31, 63])
    def test_sandwiches(self, n):
        # x r x^-1 pops its whole stack, so while the stack of x stands a
        # cut's z would hold it: those cuts are dropped, and one long link
        # is left.  y b^-2000 y^-1 keeps its cuts.
        ctx, rng = group_context(n), random.Random(f"sandwich:{n}")
        x = word_from_syllables([(rng.randrange(2), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(200)])
        sandwich = concat(x, relator(n), invert(x))
        assert_cuts_hold(sandwich, ctx, CUT)
        if n >= 7:
            cuts = cone.certify_sign(sandwich, ctx, CUT)[1]
            assert all(k <= CUT or k >= len(sandwich) - 2 * CUT for k, _, _ in cuts)
        y = x[:60]
        assert assert_cuts_hold(concat(y, ((GEN_B, -2000),), invert(y)), ctx, CUT) >= 2

    @pytest.mark.parametrize("n", [1, 2, 7, 63])
    def test_a_positive_prefix_kept_whole(self, n):
        # After x the stack is the final prefix, which ends in an a-block;
        # each delta = a^q merges into it and b b^-1 leaves it as it was.
        # So late cuts keep the whole prefix, whose last syllable the
        # positive witness merges with delta^ell: the cut stops one short.
        ctx = group_context(n)
        x = ((GEN_B, 1), (GEN_A, 1), (GEN_B, 2), (GEN_A, 1))
        w = x + ((GEN_A, ctx.q), (GEN_B, 1), (GEN_B, -1)) * 8
        assert decide_sign(w, ctx).verdict is Sign.POSITIVE
        assert assert_cuts_hold(w, ctx, 3) >= 6

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_plain_layouts_check_the_whole_word(self, n):
        ctx = group_context(n)
        assert link_syllables(ctx) is None
        w = parse_word("a^2 b^-1 a^3 b^2 a^-1 b") * 20
        result, cuts = cone.certify_sign(w, ctx, None)
        assert result == decide_sign(w, ctx)
        assert cuts == []
        assert assert_cuts_hold(w, ctx, 4) > 0

    def test_the_producer_folds_each_syllable_once_on_one_stack(self, monkeypatch):
        # b^-t builds a stack of about 2t syllables that the short tail
        # b a^8 (= b delta at n = 7) eats two at a time, so the stack stays
        # high across every chunk.  The producer runs the stack pass on
        # one list, a chunk of CUT syllables at a time, each syllable once.
        ctx, t, pairs = group_context(7), 20_000, 6_000
        w = ((GEN_B, -t),) + ((GEN_B, 1), (GEN_A, 8)) * pairs
        real, lists, chunks = normalform._push, set(), []

        def counted(stack, ell, budget, word, ctx):
            lists.add(id(stack))
            chunks.append(len(word))
            return real(stack, ell, budget, word, ctx)

        monkeypatch.setattr(normalform, "_push", counted)
        result, cuts = cone.certify_sign(w, ctx, link_syllables(ctx))
        assert len(lists) == 1 and sum(chunks) == len(w) and max(chunks) == CUT
        assert result == decide_sign(w, ctx) and cuts
        assert oracle_chain(w, result.witness, cuts, ctx)

    def test_budget_tripwire(self, monkeypatch):
        # A stack pass that starts overspent must raise, not hand its state
        # to the sign pass: real code, so also under -O.
        monkeypatch.setattr(normalform, "START", ((), 0, -10**6))
        with pytest.raises(RewriteLimitError, match="^normal-form budget exhausted$"):
            cone.certify_sign(parse_word("a b^-2 a^3 b"), group_context(7), CUT)

    @pytest.mark.parametrize("n", [4, 7, 31, 63])
    def test_packed_layouts_cut_every_cut_syllables(self, n):
        ctx = group_context(n)
        w = parse_word("a^2 b^-1 a^3 b^2 a^-1 b") * 20
        assert link_syllables(ctx) == CUT
        result, cuts = cone.certify_sign(w, ctx, CUT)
        assert result == decide_sign(w, ctx)
        assert len(cuts) > len(w) // CUT // 2
        assert all(len(z) <= CUT for _, _, z in cuts)
        short = w[:CUT]
        assert cone.certify_sign(short, ctx, CUT)[1] == []
