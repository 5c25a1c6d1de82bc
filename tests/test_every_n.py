"""The paper's checks at every n in 1..63, not only the few n of the
acceptance gates (tests/test_acceptance.py, whose numbering this file
follows).  Too slow for Tier-1: it runs in the ci-deep step.

  gate 1  the trichotomy suite on the length-8 ball: no violations, and
          as many positive words as negative ones;
  gate 2  products of positive words of the length-7 ball, |u| + |v| at
          most 8 letters, stay positive (at least 20,000 pairs a n);
  gate 6  <b> is convex for DD on the length-6 ball, and b^-1 is the
          least dlike-positive element of the radius-6 ball;
  gate 7  the conjugated orders by b^k a: every row locks in at k = 1,
          bar one stated exception at n = 1, and the conjugated minimum
          is a^-1 b^-1 a, distinct from b^-1;
  gate 8  every check of the identity battery holds, and the battery
          has the checks test_acceptance's gate 8 names (crossing-expansion
          from n = 2).

Beyond the gates, the dlike cone is a semigroup: products of positive
words stay positive, for dlike and its conjugate by b a.  Gate 2 checks
this for DD; for dlike it is the claim that flipping DD on the convex
subgroup <b> still gives a left order.

Each test prints its time per n (visible with -s).
"""

import time

import pytest

from conftest import deep_only
from heckeord.cone import Sign, decide_sign
from heckeord.context import group_context
from heckeord.oracle import oracle_equal
from heckeord.orderings import (
    Conjugated,
    DehornoyLike,
    convergence_experiment,
    convexity_check,
    is_positive,
    smallest_positive_in_ball,
)
from heckeord.suites import run_identity_suite, run_trichotomy_suite
from heckeord.words import concat, enumerate_reduced, format_word, letter_length, parse_word

pytestmark = deep_only

EVERY_N = range(1, 64)
BALL_8_COUNT = 13121  # 2 * 3^8 - 1

# Gate 7's rows where some n differs from "locks in at k = 1": at n = 1,
# a^-1 b^-1 a = b (G_1 is the Klein bottle group), so b^-1 conjugated by
# b^k a is b for every k, which dlike calls negative: the row never locks in.
GATE_7_EXCEPTIONS = {(1, "b^-1"): None}


def timed(label, check):
    """Run check(n) for every n, printing the time each took."""
    problems, times = [], []
    for n in EVERY_N:
        start = time.perf_counter()
        problems.extend(f"n={n}: {p}" for p in check(n))
        times.append(f"{n}:{time.perf_counter() - start:.2f}")
    print(f"{label}: seconds per n {' '.join(times)}")
    return problems


def test_gate_01_trichotomy_at_every_n():
    def check(n):
        rep = run_trichotomy_suite(group_context(n), 8)
        if rep.total_words != BALL_8_COUNT:
            yield f"examined {rep.total_words} words"
        yield from rep.violations
        if rep.counts["positive"] != rep.counts["negative"]:
            yield f"asymmetric counts {rep.counts}"

    assert timed("gate 1", check) == []


def test_gate_02_positive_products_at_every_n():
    # Pairs of positive words u, v of the length-7 ball with |u| + |v| <= 8
    # letters, grouped by letter length as in test_acceptance.
    ball = [(w, letter_length(w)) for w in enumerate_reduced(7) if w]

    def check(n):
        ctx = group_context(n)
        positive = {}
        for w, size in ball:
            if decide_sign(w, ctx).verdict is Sign.POSITIVE:
                positive.setdefault(size, []).append(w)
        pairs = 0
        for i, us in positive.items():
            for j, vs in positive.items():
                if i + j > 8:
                    continue
                pairs += len(us) * len(vs)
                for u in us:
                    for v in vs:
                        if decide_sign(concat(u, v), ctx).verdict is not Sign.POSITIVE:
                            yield f"{format_word(u)} times {format_word(v)} is not positive"
        if pairs < 20_000:
            yield f"only {pairs} pairs examined"

    assert timed("gate 2", check) == []


def test_gate_06_convexity_and_least_positive_at_every_n():
    b_inverse = parse_word("b^-1")

    def check(n):
        ctx = group_context(n)
        rep = convexity_check(ctx, 6)
        if not rep.ok:
            yield f"{len(rep.violations)} convexity violations, first {format_word(rep.violations[0])}"
        found = smallest_positive_in_ball(DehornoyLike(), ctx, 6)
        if found is None or not oracle_equal(found, b_inverse, ctx):
            yield f"dlike minimum {found}, want b^-1"

    assert timed("gate 6", check) == []


def test_gate_07_conjugated_orders_at_every_n():
    elements = tuple(parse_word(t) for t in ("b^-1", "a", "a b", "a b^2"))

    def check(n):
        ctx = group_context(n)
        rep = convergence_experiment(ctx, elements, k_max=4)
        for row in rep.rows:
            expected = GATE_7_EXCEPTIONS.get((n, format_word(row.element)), 1)
            if row.stabilized_from != expected:
                yield f"{format_word(row.element)}: stabilized_from={row.stabilized_from}, want {expected}"
        if not oracle_equal(rep.min_conjugated, parse_word("a^-1 b^-1 a"), ctx):
            yield f"conjugated minimum {rep.min_conjugated}"
        if not oracle_equal(rep.min_dehornoy_like, parse_word("b^-1"), ctx):
            yield f"base minimum {rep.min_dehornoy_like}"
        if not rep.minima_distinct:
            yield "conjugated minimum collides with the base minimum"

    assert timed("gate 7", check) == []


GATE_8_CHECKS = {
    "b-inverse-elimination", "center-vs-a", "center-vs-b",
    *(f"handle-k{k}" for k in range(1, 6)),
    *(f"flip-b-power-r{r}" for r in range(1, 6)),
}


def test_gate_08_identity_battery_at_every_n():
    def check(n):
        rep = run_identity_suite(group_context(n))
        names = {c.name for c in rep.checks}
        missing = (GATE_8_CHECKS | ({"crossing-expansion"} if n >= 2 else set())) - names
        if missing:
            yield f"missing checks {sorted(missing)}"
        yield from (f"{c.name} fails" for c in rep.checks if not c.holds)

    assert timed("gate 8", check) == []


def test_dlike_cone_is_a_semigroup_at_every_n():
    # Every pair of positive words u, v with |u| + |v| <= 6 letters.
    ball = [(w, letter_length(w)) for w in enumerate_reduced(5)]
    specs = (DehornoyLike(), Conjugated(DehornoyLike(), parse_word("b a")))

    def check(n):
        ctx = group_context(n)
        for spec in specs:
            positive = [(w, size) for w, size in ball if is_positive(w, spec, ctx)]
            for u, size in positive:
                for v, other in positive:
                    if size + other <= 6 and not is_positive(concat(u, v), spec, ctx):
                        yield f"{spec}: {format_word(u)} times {format_word(v)} is not positive"

    assert timed("semigroup", check) == []


@pytest.mark.parametrize("n, equal", [(1, True), (2, False), (63, False)])
def test_gate_07_exception_has_its_reason(n, equal):
    # The reason for the n = 1 row, checked by the oracle: a^-1 b^-1 a = b
    # holds in G_1 and nowhere else among these n.
    ctx = group_context(n)
    assert oracle_equal(parse_word("a^-1 b^-1 a"), parse_word("b"), ctx) is equal
