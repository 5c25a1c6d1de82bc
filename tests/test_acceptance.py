"""Acceptance gate: ten end-to-end guarantees, one [PASS]/[FAIL] line each.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion
verdict lines; each test prints its own [PASS]/[FAIL] summary as well
(visible with -s, or in the captured output of a failure).
"""

import json
import time

from heckeord.braid3 import ConeRegion, cone_certify_b3, is_d_positive, sigma_to_ab
from heckeord.cli import main as cli_main
from heckeord.cone import Sign, decide_sign
from heckeord.context import group_context, ring_of
from heckeord.algebra import mat_identity, mat_neg
from heckeord.oracle import klein_sign, oracle_equal, phi, rho
from heckeord.orderings import (
    DehornoyLike,
    convergence_experiment,
    convexity_check,
    is_positive,
    smallest_positive_in_ball,
)
from heckeord.suites import (
    build_cayley_ball,
    run_identity_suite,
    run_trichotomy_suite,
    verify_family_identity,
)
from heckeord.words import concat, enumerate_reduced, format_word, parse_word

BALL_8_COUNT = 13121  # 1 + sum over L=1..8 of 4 * 3^(L-1)


def report(num: int, description: str, problems: list) -> None:
    ok = not problems
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {description}")
    assert ok, f"criterion {num:02d} ({description}): {problems[:10]}"


def test_criterion_01_exhaustive_trichotomy_against_oracle():
    problems = []
    start = time.perf_counter()
    ball = list(enumerate_reduced(8))
    if len(ball) != BALL_8_COUNT:
        problems.append(f"ball size {len(ball)} != {BALL_8_COUNT}")
    for n in (1, 2, 3, 5):
        rep = run_trichotomy_suite(group_context(n), 8)
        if rep.total_words != BALL_8_COUNT:
            problems.append(f"n={n}: examined {rep.total_words} words")
        problems.extend(f"n={n}: {v}" for v in rep.violations)
        if sum(rep.counts.values()) != rep.total_words:
            problems.append(f"n={n}: some word got no verdict or several")
        if rep.counts["positive"] != rep.counts["negative"]:
            problems.append(f"n={n}: asymmetric counts {rep.counts}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300:
        problems.append(f"took {elapsed:.1f}s (budget 300s)")
    report(1, "trichotomy on all 13121 ball-8 words, n in {1,2,3,5}", problems)


def test_criterion_02_positive_verdicts_closed_under_products():
    problems = []
    for n in (2, 3):
        ctx = group_context(n)
        positives_by_len = {}
        for w in enumerate_reduced(7):
            length = sum(abs(e) for _, e in w)
            if length and decide_sign(w, ctx).verdict is Sign.POSITIVE:
                positives_by_len.setdefault(length, []).append(w)
        pairs = 0
        for i, us in positives_by_len.items():
            for j, vs in positives_by_len.items():
                if i + j > 8:
                    continue
                for u in us:
                    for v in vs:
                        pairs += 1
                        product = concat(u, v)
                        if decide_sign(product, ctx).verdict is not Sign.POSITIVE:
                            problems.append(
                                f"n={n}: {format_word(u)} * {format_word(v)}"
                            )
        if pairs < 20000:
            problems.append(f"n={n}: only {pairs} pairs examined")
    report(2, "products of positive-verdict words stay positive", problems)


def test_criterion_03_matrix_representation_identities():
    problems = []
    for n in range(1, 64):
        ctx = group_context(n)
        ring = ring_of(ctx)
        ident = mat_identity(ring)
        if rho(parse_word(f"b a^{n} b a^-1"), ctx) != ident:
            problems.append(f"n={n}: rho(b a^n b a^-1) != I exactly")
        delta = parse_word(f"a^{n + 1}")
        if rho(delta, ctx) != mat_neg(ring, ident):
            problems.append(f"n={n}: rho(a^(n+1)) != -I exactly")
        m = rho(parse_word("b"), ctx)
        trace = ring.add(m[0], m[3])
        if trace != ring.from_int(2):
            problems.append(f"n={n}: trace rho(b) = {trace}, want 2")
        if phi(delta, ctx) == 0:
            problems.append(f"n={n}: phi vanishes on the central power")
    report(3, "exact SL2 representation identities for n = 1..63", problems)


def test_criterion_04_integer_cone_certificates():
    problems = []

    def imat_mul(x, y):
        return (
            x[0] * y[0] + x[1] * y[2],
            x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2],
            x[2] * y[1] + x[3] * y[3],
        )

    abar = (0, 1, -1, 1)
    bbar = (1, 0, 1, 1)
    abar3 = imat_mul(abar, imat_mul(abar, abar))
    if abar3 not in ((1, 0, 0, 1), (-1, 0, 0, -1)):
        problems.append(f"abar^3 = {abar3}, not projectively trivial")
    if imat_mul(bbar, imat_mul(imat_mul(abar, abar), bbar)) != abar:
        problems.append("bbar abar^2 bbar != abar over the integers")

    ctx = group_context(2)
    ring = ring_of(ctx)
    if rho(parse_word("a^3"), ctx) != mat_neg(ring, mat_identity(ring)):
        problems.append("ring image of a^3 is not -I")
    if rho(parse_word("b a^2 b"), ctx) != rho(parse_word("a"), ctx):
        problems.append("ring image of the defining relation broken")

    if cone_certify_b3(parse_word("a")) != (ConeRegion.V, ConeRegion.U):
        problems.append("no certificate that a maps V into U")
    for k in range(1, 6):
        if cone_certify_b3(parse_word(f"b^{k}")) != (ConeRegion.U, ConeRegion.V):
            problems.append(f"no certificate that b^{k} maps U and V into V")
    report(4, "integer-matrix anchors and exact ray cone certificates", problems)


def test_criterion_05_braid_positivity_matches_bridged_order():
    problems = []
    ctx = group_context(2)
    order = DehornoyLike()
    start = time.perf_counter()
    disagreements = 0
    total = 0
    for sigma_word in enumerate_reduced(8):
        total += 1
        bridged = sigma_to_ab(sigma_word)
        if is_d_positive(sigma_word) != is_positive(bridged, order, ctx):
            disagreements += 1
            if len(problems) < 5:
                problems.append(format_word(sigma_word))
    elapsed = time.perf_counter() - start
    if total != BALL_8_COUNT:
        problems.append(f"examined {total} braid words, want {BALL_8_COUNT}")
    if disagreements:
        problems.append(f"{disagreements} disagreements")
    if elapsed >= 120:
        problems.append(f"took {elapsed:.1f}s (budget 120s)")
    report(5, "braid-style positivity == bridged-order positivity, ball 8", problems)


def test_criterion_06_b_subgroup_convexity_and_least_positive():
    problems = []
    for n in (2, 3):
        rep = convexity_check(group_context(n), 6)
        if not rep.ok:
            problems.append(f"n={n}: {len(rep.violations)} convexity violations")
    ctx = group_context(2)
    b_inverse = parse_word("b^-1")
    for radius in range(1, 7):
        found = smallest_positive_in_ball(DehornoyLike(), ctx, radius)
        if found is None or not oracle_equal(found, b_inverse, ctx):
            problems.append(f"radius {radius}: minimum {found}, want b^-1")
    report(6, "b-subgroup convexity and the least positive element b^-1", problems)


def test_criterion_07_conjugated_orders_converge_with_distinct_minimum():
    problems = []
    ctx = group_context(2)
    elements = tuple(parse_word(t) for t in ("b^-1", "a", "a b", "a b^2"))
    rep = convergence_experiment(ctx, elements, k_max=4)
    # Each test element is b^j a v with j = 0 (or a b-power), so the
    # stabilization bound k > j means every row must lock in at k = 1.
    for row in rep.rows:
        if row.stabilized_from != 1:
            problems.append(
                f"{format_word(row.element)}: stabilized_from={row.stabilized_from}"
            )
    expected_min = parse_word("a^-1 b^-1 a")
    if rep.min_conjugated is None or not oracle_equal(
        rep.min_conjugated, expected_min, ctx
    ):
        problems.append(f"conjugated minimum {rep.min_conjugated}")
    if rep.min_dehornoy_like is None or not oracle_equal(
        rep.min_dehornoy_like, parse_word("b^-1"), ctx
    ):
        problems.append(f"base minimum {rep.min_dehornoy_like}")
    if not rep.minima_distinct:
        problems.append("conjugated minimum collides with the base minimum")
    report(7, "conjugated-order rows stabilize at k=1; minima differ", problems)


def test_criterion_08_identity_suite_and_two_parameter_family():
    problems = []
    required = {
        "b-inverse-elimination",
        "crossing-expansion",
        "center-vs-a",
        "center-vs-b",
    }
    required |= {f"handle-k{k}" for k in range(1, 6)}
    required |= {f"flip-b-power-r{r}" for r in range(1, 6)}
    for n in (2, 3, 4):
        rep = run_identity_suite(group_context(n))
        names = {c.name for c in rep.checks}
        missing = required - names
        if missing:
            problems.append(f"n={n}: missing checks {sorted(missing)}")
        problems.extend(f"n={n}: {c.name} fails" for c in rep.checks if not c.holds)
    for m in range(1, 6):
        for n in range(1, 6):
            if not verify_family_identity(m, n):
                problems.append(f"family identity false at m={m}, n={n}")
    report(8, "identity battery (n=2,3,4) and the m,n two-parameter law", problems)


def test_criterion_09_klein_bottle_closed_form_cross_check():
    problems = []
    ctx = group_context(1)
    verdict_of_sign = {1: Sign.POSITIVE, -1: Sign.NEGATIVE, 0: Sign.IDENTITY}
    mismatches = 0
    for w in enumerate_reduced(8):
        if decide_sign(w, ctx).verdict is not verdict_of_sign[klein_sign(w)]:
            mismatches += 1
            if len(problems) < 5:
                problems.append(format_word(w))
    if mismatches:
        problems.append(f"{mismatches} cascade/closed-form mismatches")

    ball = build_cayley_ball(ctx, 2)
    if len(ball["nodes"]) != 13:
        problems.append(f"radius-2 graph has {len(ball['nodes'])} nodes, want 13")
    positives = {node["word"] for node in ball["nodes"] if node["verdict"] == "positive"}
    cone_members = {
        node["word"] for node in ball["nodes"] if klein_sign(parse_word(node["word"])) > 0
    }
    if positives != cone_members:
        problems.append(f"positives {sorted(positives)} != cone {sorted(cone_members)}")
    if len(positives) != 6:
        problems.append(f"{len(positives)} positives in the radius-2 graph, want 6")
    report(9, "n=1 cascade == closed form; exported graph shows the cone", problems)


def test_criterion_10_byte_identical_reruns(capsys):
    problems = []

    def run_once() -> tuple[str, dict]:
        code = cli_main(["suite", "--n", "2", "--max-len", "6"])
        out = capsys.readouterr().out
        if code != 0:
            problems.append(f"suite exited {code}")
        stripped = "\n".join(
            line for line in out.splitlines() if "wall_time" not in line
        )
        return stripped, json.loads(out)

    (first, doc), (second, _) = run_once(), run_once()
    if first != second:
        problems.append("reruns differ beyond the timing field")
    if "violations" not in doc:
        problems.append("suite JSON misses the violations field")
    report(10, "suite output is deterministic apart from timing", problems)
