"""Left orders: positivity specs, comparison, convexity, convergence."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import trivial_words, words
from heckeord import cone, normalform, oracle, orderings, words as words_module
from heckeord.cone import Sign, SignResult
from heckeord.context import group_context
from heckeord.oracle import element_key, oracle_equal, oracle_is_identity, phi
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
from heckeord.words import RewriteLimitError, concat, enumerate_reduced, format_word, invert, parse_word
from reference_orderings import (
    reference_compare,
    reference_convexity_check,
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
        def coarse(nf, ctx):
            value = -(phi(nf.prefix, ctx) + ctx.q * ctx.phi_a * nf.ell)
            sign = Sign.POSITIVE if value > 0 else Sign.NEGATIVE if value < 0 else Sign.IDENTITY
            return SignResult(sign, (), 0)

        monkeypatch.setattr(orderings, "sign_pass", coarse)
        monkeypatch.setattr(cone, "sign_pass", coarse)
        ctx = group_context(n)
        for radius in range(6):
            assert_scans_match_reference(ctx, radius, (DD(), DDReversed(), Conjugated(DD(), parse_word("b a"))))
        report = convexity_check(ctx, 5)
        assert len(report.violations) > 1
        if n == 2:
            assert smallest_positive_in_ball(DD(), ctx, 5) == parse_word("b")
            assert reference_compare(parse_word("a b^3"), parse_word("b"), DD(), ctx) is Cmp.EQUAL


class TestScanSeams:
    def test_planted_sign_pass_is_read_through_orderings(self, monkeypatch):
        # The scans read their sign passes through orderings.sign_pass: a
        # pass that calls everything negative leaves the ball no positive
        # element under DD, and no violation of convexity.
        calls = []

        def negative(nf, ctx):
            calls.append(nf)
            return SignResult(Sign.NEGATIVE, ((0, -1),), 1)

        monkeypatch.setattr(orderings, "sign_pass", negative)
        assert smallest_positive_in_ball(DD(), CTX2, 3) is None
        assert calls
        calls.clear()
        assert convexity_check(CTX2, 3).violations == ()
        assert calls

    def test_right_factor_phi_is_taken_once_per_track(self, monkeypatch):
        # The flipped scan reads b_power_of over the right factor g^-1 at
        # every word; phi(g^-1) is taken once per track, so the radius-6
        # scan of Conjugated(DehornoyLike(), b a) at n = 2 calls phi 2,964
        # times (5,141 when every sign read took it again).
        calls = [0]

        def counting(word, ctx):
            calls[0] += 1
            return phi(word, ctx)

        monkeypatch.setattr(oracle, "phi", counting)
        monkeypatch.setattr(orderings, "phi", counting, raising=False)
        spec = Conjugated(DehornoyLike(), parse_word("b a"))
        assert smallest_positive_in_ball(spec, CTX2, 6) == parse_word("a b")
        assert 0 < calls[0] <= 2964


class TestScanEdges:
    @pytest.mark.parametrize("scan", [
        functools.partial(smallest_positive_in_ball, DehornoyLike()),
        convexity_check,
    ], ids=["minimum", "convexity"])
    def test_negative_radius_raises_before_any_work(self, monkeypatch, scan):
        def no_work(*args):
            raise AssertionError("a word was examined")

        monkeypatch.setattr(normalform, "stack_pass", no_work)
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
