"""Left orders: positivity specs, comparison, convexity, convergence."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import trivial_words, words
from heckeord import cone, normalform, oracle, orderings, words as words_module
from heckeord.cone import Sign, SignResult, verdict
from heckeord.context import group_context
from heckeord.normalform import START, is_b_power, resume, to_normal_form
from heckeord.oracle import b_power_of, element_key, oracle_equal, oracle_is_identity, phi
from heckeord.orderings import (
    Cmp,
    Conjugated,
    DD,
    DDReversed,
    DehornoyLike,
    MINIMA_BALL,
    compare,
    convergence_experiment,
    convexity_check,
    is_positive,
    smallest_positive_in_ball,
)
from heckeord.words import GEN_A, GEN_B, RewriteLimitError, concat, conjugate, enumerate_reduced, format_word, gen_power, invert, parse_word
from reference_orderings import (
    reference_compare,
    reference_convexity_check,
    reference_order_sign,
    reference_smallest_positive_in_ball,
)

CTX2 = group_context(2)
FLIP = {Cmp.LESS: Cmp.GREATER, Cmp.GREATER: Cmp.LESS, Cmp.EQUAL: Cmp.EQUAL}


class TestPositivity:
    def test_dd_cone_contains_positive_words(self):
        for text in ("a", "b", "a b^2", "b a b"):
            assert is_positive(parse_word(text), DD(), CTX2)
            assert not is_positive(invert(parse_word(text)), DD(), CTX2)

    def test_dd_reversed_flips(self):
        for text in ("a", "b^-1", "a b a^-1"):
            w = parse_word(text)
            assert is_positive(w, DDReversed(), CTX2) == is_positive(
                invert(w), DD(), CTX2
            )

    def test_unknown_spec_is_a_type_error(self):
        with pytest.raises(TypeError, match="^unknown ordering spec 'dd'$"):
            is_positive(parse_word("a"), "dd", CTX2)

    def test_identity_is_never_positive(self):
        for spec in (DD(), DDReversed(), DehornoyLike()):
            assert not is_positive((), spec, CTX2)

    def test_dehornoy_like_reverses_b_powers_only(self):
        dlike = DehornoyLike()
        assert is_positive(parse_word("b^-1"), dlike, CTX2)
        assert is_positive(parse_word("b^-3"), dlike, CTX2)
        assert not is_positive(parse_word("b"), dlike, CTX2)
        assert not is_positive(parse_word("b^3"), dlike, CTX2)
        # off the <b> subgroup the DD verdict rules
        assert is_positive(parse_word("a"), dlike, CTX2)
        assert is_positive(parse_word("a b^2"), dlike, CTX2)
        assert not is_positive(parse_word("a^-1"), dlike, CTX2)

    def test_dehornoy_like_sees_disguised_b_powers(self):
        # a^-1 b a^n = b^-1 must count as dlike-positive despite its spelling.
        for n in (2, 3):
            ctx = group_context(n)
            assert is_positive(parse_word(f"a^-1 b a^{n}"), DehornoyLike(), ctx)

    def test_conjugated_moves_the_test_element(self):
        # (b a) (a^-1 b^-1 a) (b a)^-1 frees to b^-1, which is dlike-positive.
        spec = Conjugated(DehornoyLike(), parse_word("b a"))
        assert is_positive(parse_word("a^-1 b^-1 a"), spec, CTX2)

    def test_conjugated_by_identity_is_the_base(self):
        spec = Conjugated(DehornoyLike(), ())
        for text in ("a", "b^-1", "b", "a^-1"):
            w = parse_word(text)
            assert is_positive(w, spec, CTX2) == is_positive(
                w, DehornoyLike(), CTX2
            )

    @settings(max_examples=50)
    @given(words())
    def test_exactly_one_of_w_and_w_inverse_is_positive(self, w):
        # Cone trichotomy, for each order spec.
        for spec in (DD(), DDReversed(), DehornoyLike()):
            p, q = is_positive(w, spec, CTX2), is_positive(invert(w), spec, CTX2)
            if oracle_is_identity(w, CTX2):
                assert not p and not q
            else:
                assert p != q


class TestCompare:
    def test_orientation(self):
        # In the Dehornoy-like order b^-1 is the least positive element,
        # so the identity is Less than it.
        assert compare(parse_word("1"), parse_word("b^-1"), DehornoyLike(), CTX2) is Cmp.LESS

    def test_equal_via_oracle(self):
        assert compare(parse_word("b a^2 b"), parse_word("a"), DD(), CTX2) is Cmp.EQUAL

    def test_antisymmetry_on_ball(self):
        ball = list(enumerate_reduced(2))
        for spec in (DD(), DehornoyLike()):
            for u in ball:
                for v in ball:
                    assert compare(v, u, spec, CTX2) is FLIP[compare(u, v, spec, CTX2)]

    @settings(max_examples=150)
    @given(st.data())
    def test_equal_exactly_when_oracle_equal_for_all_n(self, data):
        # v is either unrelated to u or u times a disguised identity, so
        # both sides of the equivalence come up at every n in 1..63.
        n = data.draw(st.integers(min_value=1, max_value=63), label="n")
        ctx = group_context(n)
        u = data.draw(words(max_syllables=8), label="u")
        v = data.draw(
            st.one_of(words(max_syllables=8), trivial_words(n).map(lambda t: concat(u, t))),
            label="v",
        )
        g = data.draw(words(max_syllables=3), label="g")
        equal = oracle_equal(u, v, ctx)
        for spec in (DD(), DDReversed(), DehornoyLike(), Conjugated(DehornoyLike(), g)):
            forward = compare(u, v, spec, ctx)
            assert (forward is Cmp.EQUAL) == equal, spec
            assert compare(v, u, spec, ctx) is FLIP[forward], spec

    @pytest.mark.parametrize("spec", [DD(), DDReversed(), DehornoyLike()],
                             ids=["dd", "ddrev", "dlike"])
    def test_ball3_sorts_into_a_transitive_chain(self, spec):
        # One representative per group element, sorted by the order; every
        # earlier element must compare Less against every later one.
        seen = {}
        for w in enumerate_reduced(3):
            seen.setdefault(element_key(w, CTX2), w)
        reps = list(seen.values())
        reps.sort(key=functools.cmp_to_key(
            lambda u, v: {Cmp.LESS: -1, Cmp.EQUAL: 0, Cmp.GREATER: 1}[
                compare(u, v, spec, CTX2)
            ]
        ))
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert compare(reps[i], reps[j], spec, CTX2) is Cmp.LESS

    @settings(max_examples=40)
    @given(words(max_syllables=3), words(max_syllables=3), words(max_syllables=3))
    def test_left_invariance(self, g, u, v):
        assert compare(u, v, DehornoyLike(), CTX2) is compare(
            concat(g, u), concat(g, v), DehornoyLike(), CTX2
        )


class TestBallMinima:
    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_dehornoy_like_minimum_is_b_inverse(self, radius):
        best = smallest_positive_in_ball(DehornoyLike(), CTX2, radius)
        assert oracle_equal(best, parse_word("b^-1"), CTX2)

    def test_dd_minimum_is_b(self):
        best = smallest_positive_in_ball(DD(), CTX2, 4)
        assert oracle_equal(best, parse_word("b"), CTX2)

    def test_b_subgroup_sits_under_everything_positive_off_it(self):
        # b^k < any positive non-b-power c in the DD order, for all |k| <= 4:
        # the convexity scan at radius 4 plus minimality of b says exactly
        # the sandwich can't happen; spot-check the comparisons directly.
        c = parse_word("a")
        for k in range(-4, 5):
            w = parse_word(f"b^{k}") if k else ()
            assert compare(w, c, DD(), CTX2) is Cmp.LESS


class TestConvexity:
    @pytest.mark.parametrize("n", [2, 3])
    def test_no_violations_radius4(self, n):
        report = convexity_check(group_context(n), 4)
        assert report.ok
        assert report.violations == ()
        assert report.checked == sum(1 for _ in enumerate_reduced(4))
        assert report.sandwich_radius == 4


class TestConvergence:
    def test_rows_stabilize_immediately_for_the_standard_elements(self):
        elements = tuple(parse_word(t) for t in ("b^-1", "a", "a b", "a b^2"))
        report = convergence_experiment(CTX2, elements, k_max=4)
        assert report.k_max == 4
        for row in report.rows:
            assert row.verdicts == (True,) * 4, format_word(row.element)
            assert row.stabilized_from == 1

    def test_minima_are_distinct_elements(self):
        elements = (parse_word("b^-1"),)
        report = convergence_experiment(CTX2, elements, k_max=2)
        assert report.minima_ball == MINIMA_BALL
        assert oracle_equal(report.min_dehornoy_like, parse_word("b^-1"), CTX2)
        assert report.minima_distinct
        assert not oracle_equal(report.min_conjugated, report.min_dehornoy_like, CTX2)

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_k_max_below_one_raises(self, k_max):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            convergence_experiment(CTX2, (parse_word("a"),), k_max=k_max)

    def test_k_max_above_1000_raises_before_any_verdict(self, monkeypatch):
        # The experiment costs O(elements * k_max^2) letters.
        def no_verdicts(*args):
            raise AssertionError("a verdict was computed")

        monkeypatch.setattr(orderings, "is_positive", no_verdicts)
        with pytest.raises(ValueError, match="^k_max must be <= 1000, got 1001$"):
            convergence_experiment(CTX2, (parse_word("a"),), k_max=1001)

    def test_no_elements_raises_before_the_minima(self, monkeypatch):
        def no_minima(*args):
            raise AssertionError("a ball minimum was searched")

        monkeypatch.setattr(orderings, "smallest_positive_in_ball", no_minima)
        with pytest.raises(ValueError, match="^no elements to track$"):
            convergence_experiment(CTX2, (), k_max=2)

    def test_unstable_rows_are_reported_as_none(self):
        # The moved copies of a^-1 are the inverses of the moved copies of
        # a (which are positive words), so every verdict is False.
        report = convergence_experiment(CTX2, (parse_word("a^-1"),), k_max=3)
        row = report.rows[0]
        assert row.verdicts == (False, False, False)
        assert row.stabilized_from is None


# One spec of each kind, conjugated ones and a nested one included.
SPECS = (
    DD(),
    DDReversed(),
    DehornoyLike(),
    Conjugated(DD(), parse_word("a^-1 b^2")),
    Conjugated(DDReversed(), parse_word("b a")),
    Conjugated(DehornoyLike(), parse_word("b a")),
    Conjugated(Conjugated(DehornoyLike(), parse_word("a b^-1")), parse_word("b^2 a^-1")),
)


def assert_scans_match_reference(ctx, radius, specs=SPECS):
    for spec in specs:
        walked = smallest_positive_in_ball(spec, ctx, radius)
        assert walked == reference_smallest_positive_in_ball(spec, ctx, radius), (spec, radius)
    assert convexity_check(ctx, radius) == reference_convexity_check(ctx, radius), radius


class TestScansAgainstReference:
    """The tree walks give the minimum and the ConvexityReport of the
    enumerate_reduced loops that decide every word from scratch."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_small_n_up_to_radius_5(self, n):
        for radius in range(6):
            assert_scans_match_reference(group_context(n), radius)

    @pytest.mark.parametrize("n", [31, 63])
    def test_large_n_up_to_radius_3(self, n):
        for radius in range(4):
            assert_scans_match_reference(group_context(n), radius)

    @given(st.data())
    def test_random_conjugators(self, data):
        n = data.draw(st.integers(min_value=1, max_value=63), label="n")
        radius = data.draw(st.integers(min_value=0, max_value=3), label="radius")
        g = data.draw(words(max_syllables=4), label="g")
        base = data.draw(st.sampled_from([DD(), DDReversed(), DehornoyLike()]), label="base")
        ctx = group_context(n)
        spec = Conjugated(base, g)
        assert smallest_positive_in_ball(spec, ctx, radius) == reference_smallest_positive_in_ball(spec, ctx, radius)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_under_a_planted_coarse_verdict(self, monkeypatch, n):
        # The planted verdict is the sign of -phi: a left-invariant total
        # preorder in which many distinct elements are EQUAL and many
        # non-b-powers sit between b^-R and b^R.  So the violations must
        # come out in ball order, and of tied minima the
        # earliest-enumerated one must win, though the walk meets others
        # first: at n = 2, a b^3 ties with b.
        # The scans read it through orderings.verdict, the reference
        # through cone.sign_pass.
        calls = [0]

        def coarse(prefix, ell, ctx):
            value = -(phi(prefix, ctx) + ctx.q * ctx.phi_a * ell)
            return Sign.POSITIVE if value > 0 else Sign.NEGATIVE if value < 0 else Sign.IDENTITY

        def counted(prefix, ell, ctx):
            calls[0] += 1
            return coarse(prefix, ell, ctx)

        monkeypatch.setattr(orderings, "verdict", counted)
        monkeypatch.setattr(cone, "sign_pass", lambda nf, ctx: SignResult(coarse(*nf, ctx), (), 0))
        ctx = group_context(n)
        for radius in range(6):
            assert_scans_match_reference(ctx, radius, (DD(), DDReversed(), Conjugated(DD(), parse_word("b a"))))
        report = convexity_check(ctx, 5)
        assert len(report.violations) > 1
        if n == 2:
            assert smallest_positive_in_ball(DD(), ctx, 5) == parse_word("b")
            assert reference_compare(parse_word("a b^3"), parse_word("b"), DD(), ctx) is Cmp.EQUAL
        assert calls[0] > 0


class TestScanSeams:
    def test_planted_verdict_is_read_through_orderings(self, monkeypatch):
        # The scans read their verdicts through orderings.verdict: one
        # that calls everything negative leaves the ball no positive
        # element under DD, and no violation of convexity.
        calls = []

        def negative(prefix, ell, ctx):
            calls.append((prefix, ell))
            return Sign.NEGATIVE

        monkeypatch.setattr(orderings, "verdict", negative)
        assert smallest_positive_in_ball(DD(), CTX2, 3) is None
        assert calls
        calls.clear()
        assert convexity_check(CTX2, 3).violations == ()
        assert calls

    def test_a_flipped_scan_takes_no_phi(self, monkeypatch):
        # A flipped read finds b-powers by the shape of the normal form
        # (normalform.is_b_power), so the radius-6 scan of
        # Conjugated(DehornoyLike(), b a) at n = 2 calls phi 0 times.
        calls = [0]

        def counting(word, ctx):
            calls[0] += 1
            return phi(word, ctx)

        monkeypatch.setattr(oracle, "phi", counting)
        spec = Conjugated(DehornoyLike(), parse_word("b a"))
        assert smallest_positive_in_ball(spec, CTX2, 6) == parse_word("a b")
        assert calls[0] == 0


def fold_counter(monkeypatch):
    """A one-item list counting the oracle._fold calls made from now on."""
    calls = [0]
    real = oracle._fold

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(oracle, "_fold", counting)
    return calls


SIGN_OF_SIDE = {1: Sign.POSITIVE, -1: Sign.NEGATIVE, 0: Sign.IDENTITY}


BALL_6 = tuple(enumerate_reduced(6))


class TestBPowerFilter:
    """A flipped sign read decides on the normal form whether a word is
    b^k: normalform.is_b_power tests the stack and ell that gave the DD
    verdict for the closed forms of b^k, the prefix b^k with ell 0 or
    a^n (b a^(n-1))^(t-1) b a^n with ell -1 for k = -t.  That rests on
    every b^k reaching its closed form."""

    @pytest.mark.parametrize("n", range(1, 64))
    def test_b_powers_have_the_verdict_and_phi_of_their_exponent(self, n):
        ctx = group_context(n)
        for k in range(-40, 41):
            power = gen_power(GEN_B, k)
            stack, ell, _ = resume(START, power, ctx)
            side = (k > 0) - (k < 0)
            assert verdict(stack, ell, ctx) is SIGN_OF_SIDE[side], (n, k)
            if n >= 2:
                assert phi(power, ctx) == k * ctx.phi_b, (n, k)
            assert is_b_power(stack, ell, ctx), (n, k)

    @pytest.mark.parametrize("n", range(1, 64))
    def test_predicate_passes_exactly_the_values_of_b_powers(self, n):
        # The shape test passes exactly the words of the radius-6 ball
        # that the oracle finds to be powers of b.
        ctx = group_context(n)
        for w in BALL_6:
            stack, ell, _ = resume(START, w, ctx)
            assert is_b_power(stack, ell, ctx) is (b_power_of(w, ctx) is not None), (n, format_word(w))

    @pytest.mark.parametrize("n, value, side, passes", [
        (1, 0, 1, True), (1, 0, -1, True), (1, 0, 0, True), (1, 2, 1, False), (1, -2, -1, False), (1, 1, 0, False),
        (2, -1, 1, True), (2, 1, -1, True), (2, 0, 0, True),  # b, b^-1 and 1 at n = 2, where phi(b) = -1
        (2, 1, 1, False), (2, -1, -1, False), (2, 0, 1, False), (2, -1, 0, False),
        (5, -4, 1, True), (5, 2, -1, True),  # b^2 and b^-1 at n = 5, where phi(b) = -2
        (5, -3, 1, False), (5, 3, -1, False), (5, 4, 1, False),
    ])
    def test_predicate_rows(self, n, value, side, passes):
        # phi and the DD side stay necessary conditions: b^k has phi
        # k phi(b) and the side sign(k), and at n = 1 phi(b) = 0.  So of
        # the radius-6 ball's words with this phi value and side, the
        # shape test passes some exactly on the rows of b-powers.
        ctx = group_context(n)
        found = False
        for w in BALL_6:
            stack, ell, _ = resume(START, w, ctx)
            if phi(w, ctx) == value and verdict(stack, ell, ctx) is SIGN_OF_SIDE[side]:
                found = found or is_b_power(stack, ell, ctx)
        assert found is passes

    @pytest.mark.parametrize("n, prefix, ell, passes", [
        (1, "1", 0, True), (2, "b^3", 0, True), (63, "b", 0, True),
        (1, "a b^4 a", -1, True), (2, "a^2 b a^2", -1, True), (2, "a^2 b a b a^2", -1, True),
        (5, "a^5 b a^4 b a^4 b a^5", -1, True),
        # near misses: a b^2 between the two a^n, a^n b a^n with ell 0,
        # a wrong ell, a wrong a-block, and a form cut short
        (2, "a^2 b^2 a^2", -1, False), (5, "a^5 b^2 a^5", -1, False),
        (2, "a^2 b a^2", 0, False), (1, "a b a", 0, False), (63, "a^63 b a^63", 0, False),
        (2, "b", -1, False), (2, "a^2 b a^2", -2, False), (2, "a^2", -1, False), (2, "a b", 0, False),
        (3, "a^3 b a b a^3", -1, False), (3, "a^3 b a^2 b a^2", -1, False), (3, "a^2 b a^2 b a^3", -1, False),
        (1, "a b^2", -1, False), (2, "a^2 b a b", -1, False),
    ])
    def test_shape_rows(self, n, prefix, ell, passes):
        # Each row is a normal form (of prefix * delta^ell), and the oracle
        # agrees that it is, or is not, a power of b.
        ctx = group_context(n)
        word = concat(parse_word(prefix), gen_power(GEN_A, ctx.q * ell))
        assert to_normal_form(word, ctx) == (parse_word(prefix), ell)
        assert (b_power_of(word, ctx) is not None) is passes
        assert is_b_power(parse_word(prefix), ell, ctx) is passes

    @given(st.data())
    def test_flipped_sign_matches_the_oracle_reference(self, data):
        # The normal form's b-power decision against oracle.b_power_of in
        # tests/reference_orderings.py, on words that are b^k respelled
        # by a trivial word (and conjugated, so the spec's g undoes it),
        # half of them times a commutator [x, y]: phi is still k phi(b),
        # so phi alone cannot tell most of those apart.
        n = data.draw(st.integers(min_value=1, max_value=63), label="n")
        ctx = group_context(n)
        g = data.draw(words(max_syllables=3), label="g")
        k = data.draw(st.integers(min_value=-30, max_value=30), label="k")
        power = concat(gen_power(GEN_B, k), data.draw(trivial_words(n), label="trivial"))
        if data.draw(st.booleans(), label="times a commutator"):
            x, y = data.draw(words(max_syllables=2), label="x"), data.draw(words(max_syllables=2), label="y")
            power = concat(power, x, y, invert(x), invert(y))
        word = data.draw(st.sampled_from([power, conjugate(invert(g), power)]), label="word")
        for spec in (DehornoyLike(), Conjugated(DehornoyLike(), g)):
            assert orderings._order_sign(word, spec, ctx) is reference_order_sign(word, spec, ctx), (n, spec)

    def test_flipped_scans_make_no_fold(self, monkeypatch):
        # The radius-6 scans of DehornoyLike and Conjugated(DehornoyLike,
        # b a) at n = 2 decide every b-power on the normal form.
        calls = fold_counter(monkeypatch)
        assert smallest_positive_in_ball(DehornoyLike(), CTX2, 6) == parse_word("b^-1")
        spec = Conjugated(DehornoyLike(), parse_word("b a"))
        assert smallest_positive_in_ball(spec, CTX2, 6) == parse_word("a b")
        assert calls[0] == 0

    def test_is_positive_makes_no_fold(self, monkeypatch):
        # Over the 4,373 words of the radius-7 ball at n = 2.
        calls = fold_counter(monkeypatch)
        ball = list(enumerate_reduced(7))
        positive = sum(is_positive(w, DehornoyLike(), CTX2) for w in ball)
        assert (len(ball), positive, calls[0]) == (4373, 2171, 0)

    def test_a_restart_reads_from_its_new_left_factor(self):
        # A restart replaces every depth's state, the left factor's own
        # (depth 0) included, or a stale state of a, or of b, would give
        # the wrong answer below.
        a, b = parse_word("a"), parse_word("b")
        track = orderings._Track(group_context(3), 1, True)
        track.start(a, [invert(a)])
        assert track.sign(1) is Sign.IDENTITY
        track.start(b, [b])
        assert track.sign(1) is Sign.NEGATIVE  # b^2, not a b^2
        track.start(invert(b))
        assert track.sign(0) is Sign.POSITIVE  # b^-1, not b


class TestScanEdges:
    @pytest.mark.parametrize("scan", [
        functools.partial(smallest_positive_in_ball, DehornoyLike()),
        convexity_check,
    ], ids=["minimum", "convexity"])
    def test_negative_radius_raises_before_any_work(self, monkeypatch, scan):
        def no_work(*args):
            raise AssertionError("a word was examined")

        monkeypatch.setattr(normalform, "_push", no_work)
        monkeypatch.setattr(words_module, "_ball_tree", no_work)
        with pytest.raises(ValueError, match="^max_len must be >= 0$"):
            scan(CTX2, -1)

    def test_radius_zero(self):
        for spec in SPECS:
            assert smallest_positive_in_ball(spec, CTX2, 0) is None
        report = convexity_check(CTX2, 0)
        assert (report.checked, report.sandwich_radius, report.violations) == (1, 0, ())

    @pytest.mark.parametrize("n", [1, 2, 63])
    def test_budget_tripwire_fires_in_both_scans(self, monkeypatch, n):
        # A start state 100 firings in debt leaves every budget negative:
        # the scans must raise, not report.  Real code, so also under -O.
        monkeypatch.setattr(orderings, "START", ((), 0, -100))
        ctx = group_context(n)
        with pytest.raises(RewriteLimitError):
            smallest_positive_in_ball(Conjugated(DehornoyLike(), parse_word("b a")), ctx, 2)
        with pytest.raises(RewriteLimitError):
            convexity_check(ctx, 2)
