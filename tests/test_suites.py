"""Verification suites, the two-parameter family check, Cayley export."""

import functools
import json
import multiprocessing
import os

import pytest
from hypothesis import given, strategies as st

from conftest import relator
from heckeord import cone, oracle, orderings, suites
from heckeord.cone import Sign, SignResult
from heckeord.context import group_context
from heckeord.normalform import to_normal_form
from heckeord.oracle import element_key, oracle_is_identity
from heckeord.suites import (
    build_cayley_ball,
    export_cayley_ball,
    render_cayley_dot,
    run_identity_suite,
    run_trichotomy_suite,
    verify_family_identity,
)
from heckeord.words import GEN_A, GEN_B, RewriteLimitError, _ball_tree, concat, enumerate_reduced, invert, parse_word
from reference_suites import reference_trichotomy_suite

CTX2 = group_context(2)


def call_counter():
    """A call count in shared memory, so that the forked workers of a
    jobs > 1 run add to it too."""
    return multiprocessing.Value("l", 0)


def count(counter):
    with counter.get_lock():
        counter.value += 1


class TestTrichotomySuite:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_small_ball_is_clean(self, n):
        report = run_trichotomy_suite(group_context(n), 4)
        assert report.ok
        assert report.violations == ()
        assert report.total_words == sum(1 for _ in enumerate_reduced(4))
        assert sum(report.counts.values()) == report.total_words
        assert report.counts["positive"] == report.counts["negative"]

    def test_trivial_ball(self):
        report = run_trichotomy_suite(CTX2, 0)
        assert report.total_words == 1
        assert report.counts["identity"] == 1
        assert report.ok

    def test_parallel_run_matches_serial(self, monkeypatch):
        # Wrong verdicts planted on three ball words (on their normal
        # forms, which the walk hands to the sign pass) give a report whose
        # violations are in ball order either way.  The workers are
        # forked, so they inherit the patched module.
        real = suites.sign_pass
        planted = {to_normal_form(parse_word(text), CTX2) for text in ("a b", "b^-1 a", "a^-2 b^2")}
        calls = call_counter()

        def broken(nf, ctx):
            count(calls)
            return SignResult(Sign.IDENTITY, (), 0) if nf in planted else real(nf, ctx)

        monkeypatch.setattr(suites, "sign_pass", broken)
        serial = run_trichotomy_suite(CTX2, 4, jobs=1)
        serial_calls = calls.value
        parallel = run_trichotomy_suite(CTX2, 4, jobs=2)
        assert 0 < serial_calls < calls.value
        assert len({word for word, _, _ in serial.violations}) >= 2
        assert serial.counts == parallel.counts
        assert serial.violations == parallel.violations
        assert serial.total_words == parallel.total_words

    def test_broken_mirror_is_reported(self, monkeypatch):
        # Call a^-1 the identity: its inverse a stays positive, so the
        # mirror check must name both words with the verdicts as text.
        real = suites.sign_pass
        planted = to_normal_form(parse_word("a^-1"), CTX2)
        calls = call_counter()

        def broken(nf, ctx):
            count(calls)
            result = real(nf, ctx)
            return SignResult(Sign.IDENTITY, (), 0) if nf == planted else result

        monkeypatch.setattr(suites, "sign_pass", broken)
        report = run_trichotomy_suite(CTX2, 1)
        assert calls.value > 0
        mirror = [v for v in report.violations if v[1] == "inverse-mirror"]
        assert mirror == [
            ("a", "inverse-mirror", "positive vs identity for the inverse"),
            ("a^-1", "inverse-mirror", "identity vs positive for the inverse"),
        ]
        assert report.counts == {"positive": 2, "negative": 1, "identity": 2}

    @pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
    def test_jobs_out_of_range_raises_before_any_pool(self, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was created")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        with pytest.raises(ValueError, match="jobs"):
            run_trichotomy_suite(CTX2, 2, jobs=jobs)

    @pytest.mark.parametrize("max_len", [-1, 13, 20])
    def test_max_len_out_of_range_raises_before_enumerating(self, monkeypatch, max_len):
        def no_ball(*args, **kwargs):
            raise AssertionError("the ball was walked")

        monkeypatch.setattr(suites, "_walk", no_ball)
        with pytest.raises(ValueError, match=r"max_len must be in 0\.\.12"):
            run_trichotomy_suite(CTX2, max_len)


@functools.cache
def clean_reference(n, max_len):
    return reference_trichotomy_suite(group_context(n), max_len)


FLIPPED = {Sign.POSITIVE: Sign.NEGATIVE, Sign.NEGATIVE: Sign.POSITIVE, Sign.IDENTITY: Sign.POSITIVE}


def faulty(fault, every):
    """A sign pass that plants fault on every normal form nf with
    hash(nf) % every == 0: "flip" (a wrong verdict, the witness kept),
    "other" (a one-signed witness that is another element: one more a
    or a^-1) or "mixed" (the same element, not one-signed: the witness
    with the relator appended as it is).  Its calls are counted in
    sign_pass.calls (see call_counter)."""
    real = cone.sign_pass
    calls = call_counter()

    def sign_pass(nf, ctx):
        count(calls)
        result = real(nf, ctx)
        if hash(nf) % every:
            return result
        verdict, witness, steps = result.verdict, result.witness, result.steps
        if fault == "flip":
            return SignResult(FLIPPED[verdict], witness, steps)
        if fault == "other":
            extra = -1 if verdict is Sign.NEGATIVE else 1
            return SignResult(verdict, concat(witness, ((GEN_A, extra),)), steps)
        return SignResult(verdict, witness + relator(ctx.n), steps)

    sign_pass.calls = calls
    return sign_pass


# The checks each planted fault must trip somewhere in the length-4 ball.
PLANTED_CHECKS = {
    "flip": {"witness-shape", "inverse-mirror"},
    "other": {"witness-equality"},
    "mixed": {"witness-shape"},
}


def plant(monkeypatch, fault, every):
    """The same fault in the walk's sign pass and in decide_sign's, which
    the reference calls; returns the walk's, whose calls are counted."""
    walk_pass = faulty(fault, every)
    monkeypatch.setattr(suites, "sign_pass", walk_pass)
    monkeypatch.setattr(cone, "sign_pass", faulty(fault, every))
    return walk_pass


class TestAgainstReference:
    """The walk's SuiteReport equals the from-scratch suite's in
    tests/reference_suites.py: counts, total_words, violations in order."""

    @pytest.mark.parametrize("n", range(1, 64))
    def test_every_n_up_to_length_4(self, n):
        ctx = group_context(n)
        for max_len in range(5):
            assert run_trichotomy_suite(ctx, max_len) == reference_trichotomy_suite(ctx, max_len), (n, max_len)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_length_7(self, n, jobs):
        report = run_trichotomy_suite(group_context(n), 7, jobs=jobs)
        assert report == clean_reference(n, 7)
        assert report.ok and report.total_words == 4373

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("fault", ["flip", "other", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 5, 63])
    def test_planted_faults(self, monkeypatch, n, fault, jobs):
        ctx = group_context(n)
        walk_pass = plant(monkeypatch, fault, 3)
        report = run_trichotomy_suite(ctx, 4, jobs=jobs)
        assert walk_pass.calls.value > 0
        assert report == reference_trichotomy_suite(ctx, 4)
        checks = {check for _, check, _ in report.violations}
        assert checks >= PLANTED_CHECKS[fault]

    @given(
        st.integers(min_value=1, max_value=63),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([None, "flip", "other", "mixed"]),
        st.integers(min_value=1, max_value=7),
    )
    def test_random_n_length_and_fault(self, n, max_len, fault, every):
        # No monkeypatch fixture under @given: the fault is planted by hand.
        ctx = group_context(n)
        saved = suites.sign_pass, cone.sign_pass
        if fault:
            suites.sign_pass, cone.sign_pass = faulty(fault, every), faulty(fault, every)
        try:
            assert run_trichotomy_suite(ctx, max_len) == reference_trichotomy_suite(ctx, max_len)
            if fault:
                assert suites.sign_pass.calls.value > 0
        finally:
            suites.sign_pass, cone.sign_pass = saved


def shear_always(state, ctx, k=0, sign=1):
    """_is_shear that says yes to every fold: the identity test is phi = 0
    alone, so a b^-1 a^-1 b is the identity at every n >= 2."""
    return True


def phi_blind_to_b(word, ctx):
    """phi without its b term: rho and this still tell delta^j apart, but
    no longer see a relator as trivial (b a^n b a^-1 gets (n - 1) phi(a))."""
    return sum(exp * ctx.phi_a for gen, exp in word if gen == GEN_A)


def klein_untwisted(word, start=(0, 0)):
    """The Klein pair with (t, s) * a^e = (t + e, s): G_1 made abelian."""
    t, s = start
    for gen, exp in word:
        if gen == GEN_B:
            s += exp
        else:
            t += exp
    return t, s


# (oracle name, wrong version, n, max_len, the checks it must trip there)
ORACLE_FAULTS = [
    ("_is_shear", shear_always, 2, 4, {"oracle-agreement"}),
    ("_is_shear", shear_always, 5, 4, {"oracle-agreement"}),
    ("_is_shear", shear_always, 63, 4, {"oracle-agreement"}),
    ("phi", phi_blind_to_b, 2, 5, {"oracle-agreement", "witness-equality"}),
    ("klein_pair", klein_untwisted, 1, 4, {"oracle-agreement"}),
]


class TestOracleFaults:
    """A wrong oracle, planted where the walk and the reference both read
    it, gives the same SuiteReport from each, with the checks it trips."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "name, wrong, n, max_len, checks", ORACLE_FAULTS, ids=[f"{f[0]}-n{f[2]}" for f in ORACLE_FAULTS]
    )
    def test_walk_and_reference_agree(self, monkeypatch, name, wrong, n, max_len, checks, jobs):
        ctx = group_context(n)
        monkeypatch.setattr(oracle, name, wrong)
        report = run_trichotomy_suite(ctx, max_len, jobs=jobs)
        assert report == reference_trichotomy_suite(ctx, max_len)
        assert checks <= {check for _, check, _ in report.violations}


class TestBallTree:
    def test_ranks_are_ball_positions(self):
        # Every word of the length-8 ball, walked in its five parts, has
        # the rank and inverse rank of enumerate_reduced.
        position = {w: i for i, w in enumerate(enumerate_reduced(8))}
        seen = []
        for first in (None, 0, 1, 2, 3):
            for word, _, depth, rank, inverse_rank in _ball_tree(8, first):
                assert (rank, inverse_rank) == (position[word], position[invert(word)])
                assert depth == sum(abs(exp) for _, exp in word)
                seen.append(rank)
        assert sorted(seen) == list(range(len(position)))

    def test_depth_first_in_letter_order(self):
        walked = [word for word, *_ in _ball_tree(2, 0)]
        assert walked == [parse_word(t) for t in ("a", "a^2", "a b", "a b^-1")]

    @pytest.mark.parametrize("n", [1, 2, 63])
    def test_budget_tripwire_is_checked_per_word(self, monkeypatch, n):
        # A start state 100 firings in debt leaves every word's budget
        # negative: the walk must raise at the first word after the
        # identity, not report verdicts.  Real code, so also under -O.
        monkeypatch.setattr(orderings, "START", ((), 0, -100))
        with pytest.raises(RewriteLimitError):
            run_trichotomy_suite(group_context(n), 2)

    @pytest.mark.parametrize("max_len", [0, 1])
    def test_smallest_balls_with_two_jobs(self, max_len):
        serial = run_trichotomy_suite(CTX2, max_len, jobs=1)
        assert run_trichotomy_suite(CTX2, max_len, jobs=2) == serial
        assert serial == reference_trichotomy_suite(CTX2, max_len)


class TestIdentitySuite:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_identities_hold(self, n):
        report = run_identity_suite(group_context(n))
        assert report.ok, [c.name for c in report.checks if not c.holds]

    def test_check_roster(self):
        names = {c.name for c in run_identity_suite(CTX2).checks}
        assert {"relator", "center-vs-a", "center-vs-b",
                "b-inverse-elimination", "crossing-expansion"} <= names
        assert {f"handle-k{k}" for k in range(1, 6)} <= names
        assert {f"flip-b-power-r{r}" for r in range(1, 6)} <= names

    def test_crossing_expansion_only_for_n_at_least_2(self):
        names = {c.name for c in run_identity_suite(group_context(1)).checks}
        assert "crossing-expansion" not in names

    def test_reported_sides_reproduce(self):
        # Every check's printed lhs/rhs parse back and the oracle agrees.
        for check in run_identity_suite(CTX2).checks:
            lhs, rhs = parse_word(check.lhs), parse_word(check.rhs)
            assert oracle_is_identity(concat(lhs, invert(rhs)), CTX2) == check.holds


class TestFamilyIdentity:
    def test_full_grid(self):
        for m in range(1, 6):
            for n in range(1, 6):
                assert verify_family_identity(m, n), (m, n)

    def test_degenerate_block(self):
        assert verify_family_identity(3, 1)  # a^0 handled by free reduction

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_family_identity(0, 2)
        with pytest.raises(ValueError):
            verify_family_identity(2, -1)


class TestCayleyBall:
    def test_radius_one_n2(self):
        ball = build_cayley_ball(CTX2, 1)
        assert [(node["word"], node["verdict"]) for node in ball["nodes"]] == [
            ("1", "identity"),
            ("a", "positive"),
            ("a^-1", "negative"),
            ("b", "positive"),
            ("b^-1", "negative"),
        ]

    def test_klein_radius_two_size(self):
        ball = build_cayley_ball(group_context(1), 2)
        assert len(ball["nodes"]) == 13
        assert sum(1 for node in ball["nodes"] if node["verdict"] == "positive") == 6

    def test_nodes_are_pairwise_distinct_elements(self):
        ball = build_cayley_ball(CTX2, 3)
        keys = [element_key(parse_word(node["word"]), CTX2) for node in ball["nodes"]]
        assert len(set(keys)) == len(keys)

    def test_edges_connect_oracle_correct_neighbours(self):
        ball = build_cayley_ball(CTX2, 2)
        for edge in ball["edges"]:
            source, target, gen = edge["from"], edge["to"], edge["generator"]
            step = concat(parse_word(source), parse_word(gen))
            assert oracle_is_identity(
                concat(invert(step), parse_word(target)), CTX2
            ), (source, gen, target)

    def test_dot_output_shape(self):
        dot = render_cayley_dot(build_cayley_ball(CTX2, 1))
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert dot.count("{") == dot.count("}")
        assert '"a" [style=filled fillcolor=black' in dot

    def test_json_export_roundtrips_and_is_deterministic(self):
        out1 = export_cayley_ball(CTX2, 2, "json")
        out2 = export_cayley_ball(CTX2, 2, "json")
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["n"] == 2 and doc["radius"] == 2
        assert {"from", "to", "generator", "direction"} == set(doc["edges"][0])
        assert build_cayley_ball(CTX2, 2) == doc

    def test_bad_format_and_radius(self):
        with pytest.raises(ValueError):
            export_cayley_ball(CTX2, 2, "svg")
        with pytest.raises(ValueError):
            export_cayley_ball(CTX2, 7, "json")
