"""Verification suites, the two-parameter family check, Cayley export."""

import json
import multiprocessing
import os

import pytest

from heckeord import suites
from heckeord.cone import Sign, SignResult
from heckeord.context import group_context
from heckeord.oracle import element_key, oracle_is_identity
from heckeord.suites import (
    build_cayley_ball,
    export_cayley_ball,
    render_cayley_dot,
    run_identity_suite,
    run_trichotomy_suite,
    verify_family_identity,
)
from heckeord.words import concat, enumerate_reduced, invert, parse_word

CTX2 = group_context(2)


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
        # Wrong verdicts planted on three ball words give a report whose
        # violations follow the order of the rows the pool returns.  The
        # workers are forked, so they inherit the patched module.
        real = suites.decide_sign
        planted = {parse_word("a b"), parse_word("b^-1 a"), parse_word("a^-2 b^2")}

        def broken(word, ctx):
            return SignResult(Sign.IDENTITY, (), 0) if word in planted else real(word, ctx)

        monkeypatch.setattr(suites, "decide_sign", broken)
        serial = run_trichotomy_suite(CTX2, 4, jobs=1)
        parallel = run_trichotomy_suite(CTX2, 4, jobs=2)
        assert len({word for word, _, _ in serial.violations}) >= 2
        assert serial.counts == parallel.counts
        assert serial.violations == parallel.violations
        assert serial.total_words == parallel.total_words

    def test_broken_mirror_is_reported(self, monkeypatch):
        # Call a^-1 the identity: its inverse a stays positive, so the
        # mirror check must name both words with the verdicts as text.
        real = suites.decide_sign

        def broken(word, ctx):
            result = real(word, ctx)
            return SignResult(Sign.IDENTITY, (), 0) if word == parse_word("a^-1") else result

        monkeypatch.setattr(suites, "decide_sign", broken)
        report = run_trichotomy_suite(CTX2, 1)
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
            raise AssertionError("the ball was enumerated")

        monkeypatch.setattr(suites, "enumerate_reduced", no_ball)
        with pytest.raises(ValueError, match=r"max_len must be in 0\.\.12"):
            run_trichotomy_suite(CTX2, max_len)


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
