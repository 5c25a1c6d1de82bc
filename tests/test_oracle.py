"""Matrix/abelianization oracle and group contexts."""

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import deep_only, relator, trivial_words, words
from reference_oracle import reference_digits, reference_fits, reference_repack, tuple_rho
from heckeord import oracle
from heckeord.algebra import mat_identity, mat_mul, mat_neg, mat_pow, min_poly_2cos_pi_over
from heckeord import cone
from heckeord.cone import decide_sign
from heckeord.context import GroupContext, group_context, ring_of
from heckeord.oracle import (
    CUT,
    b_power_of,
    element_key,
    klein_pair,
    klein_sign,
    link_syllables,
    oracle_chain,
    oracle_equal,
    oracle_is_identity,
    oracle_report,
    oracle_state,
    phi,
    rho,
    same_element,
)
from heckeord.words import (
    GEN_A,
    GEN_B,
    concat,
    conjugate,
    enumerate_reduced,
    format_word,
    gen_power,
    invert,
    parse_word,
    word_from_syllables,
)


class TestContext:
    def test_basic_fields(self):
        ctx = group_context(2)
        assert (ctx.n, ctx.q) == (2, 3)
        assert ctx.min_poly == (-1, 1)  # 2cos(pi/3) = 1
        assert (ctx.phi_a, ctx.phi_b) == (2, -1)

    def test_phi_normalization_by_parity(self):
        # d = gcd(n-1, 2): even n gives (2, -(n-1)), odd n gives (1, -(n-1)/2).
        assert (group_context(1).phi_a, group_context(1).phi_b) == (1, 0)
        assert (group_context(3).phi_a, group_context(3).phi_b) == (1, -1)
        assert (group_context(5).phi_a, group_context(5).phi_b) == (1, -2)
        assert (group_context(4).phi_a, group_context(4).phi_b) == (2, -3)

    @pytest.mark.parametrize("n", range(1, 64))
    def test_phi_kills_the_relator(self, n):
        ctx = group_context(n)
        assert n * ctx.phi_a + 2 * ctx.phi_b == ctx.phi_a

    @pytest.mark.parametrize("n", range(1, 64))
    def test_q_and_min_poly_follow_n(self, n):
        # The oracle reads ctx.min_poly at the plain layouts: a wrong one
        # at q = 3, such as (-2, 1), would miss that b^3 is a b-power.
        ctx = group_context(n)
        assert ctx.q == n + 1
        assert ctx.min_poly == min_poly_2cos_pi_over(ctx.q) and ctx.min_poly[-1] == 1
        totient = sum(1 for k in range(1, 2 * ctx.q + 1) if math.gcd(k, 2 * ctx.q) == 1)
        assert len(ctx.min_poly) - 1 == totient // 2

    def test_domain(self):
        with pytest.raises(ValueError):
            group_context(0)
        with pytest.raises(ValueError):
            group_context(64)

    def test_contexts_are_interned_per_ring(self):
        assert ring_of(group_context(4)) is ring_of(group_context(4))


def proj_eq(ring, x, y):
    """Equality in PGL2: x == y or x == -y.  The oracle compares rho
    exactly; this test-only helper states what holds only up to sign."""
    return x == y or x == mat_neg(ring, y)


def test_rho_is_an_sl2_representation_for_every_n():
    # Exact, not projective: the relator goes to +I and delta = a^(n+1)
    # to -I, so (rho, phi) keys need no sign canonicalisation.
    for n in range(1, 64):
        ctx = group_context(n)
        ring = ring_of(ctx)
        ident = mat_identity(ring)
        assert rho(relator(n), ctx) == ident, n
        assert rho(gen_power(GEN_A, n + 1), ctx) == mat_neg(ring, ident), n


@pytest.mark.parametrize("n", range(1, 11))
class TestRepresentation:
    def test_relator_projectively(self, n):
        # Projectively and exactly: rho(b a^n b) == rho(a).
        ctx = group_context(n)
        lhs = rho(parse_word(f"b a^{n} b"), ctx)
        assert lhs == rho(parse_word("a"), ctx)

    def test_a_has_projective_order_q(self, n):
        ctx = group_context(n)
        ring = ring_of(ctx)
        ident = mat_identity(ring)
        assert rho(gen_power(GEN_A, ctx.q), ctx) == mat_neg(ring, ident)
        for e in range(1, ctx.q):
            assert not proj_eq(ring, rho(gen_power(GEN_A, e), ctx), ident), e

    def test_b_is_parabolic(self, n):
        ctx = group_context(n)
        ring = ring_of(ctx)
        m = rho(gen_power(GEN_B, 1), ctx)
        trace = ring.add(m[0], m[3])
        assert trace in (ring.from_int(2), ring.from_int(-2))

    def test_center_is_in_projective_kernel_but_seen_by_phi(self, n):
        ctx = group_context(n)
        ring = ring_of(ctx)
        delta = gen_power(GEN_A, ctx.q)
        # rho sees delta only mod 2: rho(delta) = -I, rho(delta^2) = +I.
        assert rho(delta, ctx) == mat_neg(ring, mat_identity(ring))
        assert rho(concat(delta, delta), ctx) == mat_identity(ring)
        assert phi(delta, ctx) == ctx.q * ctx.phi_a != 0
        assert not oracle_is_identity(delta, ctx)
        assert not oracle_is_identity(concat(delta, delta), ctx)

    def test_phi_is_a_homomorphism(self, n):
        ctx = group_context(n)
        u, v = parse_word("a b^-2"), parse_word("b a^3")
        assert phi(concat(u, v), ctx) == phi(u, ctx) + phi(v, ctx)
        assert phi(invert(u), ctx) == -phi(u, ctx)


def letter_matrices(ring):
    one, zero, lam = ring.one, ring.zero, ring.lam
    return {
        (GEN_A, 1): (lam, ring.neg(one), one, zero),
        (GEN_A, -1): (zero, one, ring.neg(one), lam),
        (GEN_B, 1): (one, lam, zero, one),
        (GEN_B, -1): (one, ring.neg(lam), zero, one),
    }


def reference_rho(word, ctx):
    """rho as a left fold of general 2x2 products over the four letter
    matrices, each syllable a mat_pow of its letter: no exponent
    reduction mod 2q, no shears, no rotations."""
    ring = ring_of(ctx)
    letters = letter_matrices(ring)
    acc = mat_identity(ring)
    for gen, exp in word:
        acc = mat_mul(ring, acc, mat_pow(ring, letters[(gen, 1 if exp > 0 else -1)], abs(exp)))
    return acc


class TestRhoKernel:
    """rho's shear/rotation kernel against the plain product, n = 1..63."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 31])
    def test_reference_mat_pow_is_repeated_mat_mul(self, n):
        ring = ring_of(group_context(n))
        for letter in letter_matrices(ring).values():
            acc = mat_identity(ring)
            for e in range(2 * (n + 1) + 2):
                assert mat_pow(ring, letter, e) == acc, (n, letter, e)
                acc = mat_mul(ring, acc, letter)

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=63), words(max_syllables=40, max_exp=300))
    def test_matches_letter_by_letter_product(self, n, w):
        ctx = group_context(n)
        assert rho(w, ctx) == reference_rho(w, ctx), (n, format_word(w))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 11, 12, 30, 31, 62, 63])
    def test_rotation_and_shear_edges(self, n):
        ctx = group_context(n)
        ring = ring_of(ctx)
        q = ctx.q
        ident = mat_identity(ring)
        assert rho(gen_power(GEN_A, q), ctx) == mat_neg(ring, ident)
        assert rho(gen_power(GEN_A, 2 * q), ctx) == ident
        for e in (q, 2 * q, q - 1, q + 1, q // 2, q // 2 + 1, 2 * q + 1, 3 * q - 1):
            for sign in (1, -1):
                w = gen_power(GEN_A, sign * e)
                assert rho(w, ctx) == reference_rho(w, ctx), (n, sign * e)
        for k in (1, 2, 7, q, 2 * q + 3):
            for sign in (1, -1):
                w = gen_power(GEN_B, sign * k)
                assert rho(w, ctx) == reference_rho(w, ctx), (n, sign * k)
        w = parse_word(f"a^{q + 1} b^-3 a^-{q - 1} b^{q} a^{2 * q}")
        assert rho(w, ctx) == reference_rho(w, ctx)


class TestIdentityDecision:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_relator_is_identity(self, n):
        ctx = group_context(n)
        relator = concat(
            parse_word(f"b a^{n} b"), invert(parse_word("a"))
        )
        assert oracle_is_identity(relator, ctx)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_report_matches_its_parts(self, n):
        # Each ball word, a conjugate of the relator (the identity) and a
        # central multiple (rho-trivial part, but not 1 for n >= 2).
        ctx = group_context(n)
        ring = ring_of(ctx)
        relator = concat(parse_word(f"b a^{n} b"), parse_word("a^-1"))
        delta = gen_power(GEN_A, ctx.q)
        for w in enumerate_reduced(3):
            cases = ((w, oracle_is_identity(w, ctx)), (concat(w, relator, invert(w)), True), (concat(w, delta, invert(w)), False))
            for word, want in cases:
                identity, projective, value = oracle_report(word, ctx)
                assert identity is want, (n, format_word(word))
                assert projective == proj_eq(ring, rho(word, ctx), mat_identity(ring))
                assert value == phi(word, ctx)

    def test_central_power_is_not_identity(self):
        # rho sees delta only mod 2; phi must catch delta^2.
        ctx = group_context(2)
        ring = ring_of(ctx)
        assert rho(parse_word("a^3"), ctx) == mat_neg(ring, mat_identity(ring))
        assert phi(parse_word("a^3"), ctx) == 6
        assert not oracle_is_identity(parse_word("a^3"), ctx)
        assert rho(parse_word("a^6"), ctx) == mat_identity(ring)
        assert not oracle_is_identity(parse_word("a^6"), ctx)

    def test_empty_word(self):
        for n in (1, 2, 3):
            assert oracle_is_identity((), group_context(n))

    def test_generators_are_not_identity(self):
        for n in (1, 2, 3):
            ctx = group_context(n)
            for text in ("a", "b", "a^-1", "b^-1"):
                assert not oracle_is_identity(parse_word(text), ctx), (n, text)

    @settings(max_examples=50)
    @given(words())
    def test_w_winv_is_identity(self, w):
        ctx = group_context(3)
        assert oracle_is_identity(concat(w, invert(w)), ctx)

    @settings(max_examples=40)
    @given(words(max_syllables=4), words(max_syllables=3))
    def test_equality_is_conjugation_invariant_for_identity(self, w, g):
        # w = 1 iff g w g^-1 = 1.
        ctx = group_context(2)
        assert oracle_is_identity(w, ctx) == oracle_is_identity(
            conjugate(g, w), ctx
        )

    def test_oracle_equal(self):
        ctx = group_context(2)
        assert oracle_equal(parse_word("b a^2 b"), parse_word("a"), ctx)
        assert oracle_equal(parse_word("a^-1 b^-1 a"), parse_word("a b"), ctx)
        assert not oracle_equal(parse_word("a"), parse_word("b"), ctx)


class TestBPower:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_recognizes_plain_powers(self, n):
        ctx = group_context(n)
        for k in range(-20, 21):
            w = gen_power(GEN_B, k)
            assert b_power_of(w, ctx) == k, (n, k)

    @pytest.mark.parametrize("n", [2, 3])
    def test_recognizes_disguised_powers(self, n):
        ctx = group_context(n)
        # b a^n b a^-1 = b a^n b (a)^-1 is the relator shifted: equals 1 = b^0.
        w = concat(parse_word(f"b a^{n} b"), parse_word("a^-1"))
        assert b_power_of(w, ctx) == 0
        # a^-1 b a^n = b^-1 rewritten.
        w = parse_word(f"a^-1 b a^{n}")
        assert b_power_of(w, ctx) == -1

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_rejects_non_powers_in_ball(self, n):
        ctx = group_context(n)
        # Exhaustive cross-check on a small ball: b_power_of(w) = k must
        # agree with oracle equality w = b^k, scanned over a safe range.
        for w in enumerate_reduced(4):
            got = b_power_of(w, ctx)
            matches = [
                k
                for k in range(-9, 10)
                if oracle_is_identity(concat(w, gen_power(GEN_B, -k)), ctx)
            ]
            if got is None:
                assert matches == [], format_word(w)
            else:
                assert matches == [got], format_word(w)

    def test_conjugate_of_power_is_not_a_power(self):
        ctx = group_context(2)
        w = conjugate(parse_word("a"), parse_word("b"))  # a b a^-1 = a^-1 b^-1
        assert b_power_of(w, ctx) is None


def reference_b_power_of(word, ctx):
    """The b-power test matrix first and projective, kept as the
    reference for the exact b_power_of: k is read off the top-right
    entry of +-rho(word) by exact division by lam, rho(word) must be
    the shear rho(b)^k up to sign, and phi is checked last."""
    if ctx.n == 1:
        t, s = klein_pair(word)
        return s if t == 0 else None
    ring = ring_of(ctx)
    m = rho(word, ctx)
    k = exact_multiple(ring, m[1] if m[0] == ring.one else ring.neg(m[1]), ring.lam)
    if k is None or not proj_eq(ring, m, (ring.one, scal(k, ring.lam), ring.zero, ring.one)):
        return None
    if phi(word, ctx) != k * ctx.phi_b:
        return None
    return k


def exact_multiple(ring, u, v):
    """Solve u == k * v for an integer k, exactly; None if no solution."""
    for i, c in enumerate(v):
        if c != 0:
            if u[i] % c != 0:
                return None
            k = u[i] // c
            return k if u == scal(k, v) else None
    return 0 if u == ring.zero else None


def scal(c, u):
    return tuple(c * x for x in u)


def b_power_probes(n, ks, gs, xs):
    """Words for the b-power differential at G_n: b^k; g b^k g^-1, a
    b-power when g is in <b>; b^k with a relator conjugate x r^+-1 x^-1
    on either side; b^k delta^j, j != 0, whose matrix is +-rho(b)^k
    while phi rules it out."""
    for k in ks:
        bk = gen_power(GEN_B, k)
        yield bk
        for g in gs:
            yield conjugate(g, bk)
        for x in xs:
            for r in (relator(n), invert(relator(n))):
                yield concat(bk, conjugate(x, r))
                yield concat(conjugate(x, r), bk)
        for j in (-2, -1, 1, 2):
            yield concat(bk, gen_power(GEN_A, (n + 1) * j))


@st.composite
def b_power_cases(draw):
    """(n, word): b^k, g b^k g^-1 with relator conjugates inside,
    b^k delta^j with j != 0, or a random word."""
    n = draw(st.integers(min_value=1, max_value=63))
    k = draw(st.integers(min_value=-300, max_value=300))
    bk = gen_power(GEN_B, k)
    kind = draw(st.sampled_from(("power", "conjugate", "central", "random")))
    if kind == "power":
        return n, bk
    if kind == "conjugate":
        g = draw(st.one_of(words(3), st.integers(-9, 9).map(lambda j: gen_power(GEN_B, j))))
        return n, conjugate(g, concat(draw(trivial_words(n)), bk, draw(trivial_words(n))))
    if kind == "central":
        j = draw(st.integers(min_value=-3, max_value=3).filter(bool))
        return n, concat(bk, draw(trivial_words(n)), gen_power(GEN_A, (n + 1) * j))
    return n, draw(words(8, 2 * n + 3))


class TestBPowerAgainstReference:
    """b_power_of against reference_b_power_of, n = 1..63."""

    def test_sweep_of_powers_and_near_misses(self):
        gs, xs = list(enumerate_reduced(2)), list(enumerate_reduced(1))
        checked = powers = 0
        for n in range(1, 64):
            ctx = group_context(n)
            for w in itertools.chain(enumerate_reduced(3), b_power_probes(n, range(-5, 6), gs, xs)):
                got = b_power_of(w, ctx)
                assert got == reference_b_power_of(w, ctx), (n, format_word(w))
                checked += 1
                powers += got is not None
        assert checked >= 30000 and powers >= 10000, (checked, powers)

    @settings(max_examples=150)
    @given(b_power_cases())
    def test_random_words(self, case):
        n, w = case
        ctx = group_context(n)
        assert b_power_of(w, ctx) == reference_b_power_of(w, ctx), (n, format_word(w))


class TestKleinClosedForm:
    def test_pair_anchors(self):
        assert klein_pair(()) == (0, 0)
        assert klein_pair(parse_word("a b")) == (1, 1)
        assert klein_pair(parse_word("b a")) == (1, -1)
        assert klein_pair(parse_word("b a b")) == klein_pair(parse_word("a"))

    def test_twisted_multiplication(self):
        # (t, s) * a^e = (t + e, (-1)^e s): odd a-powers flip the b-coordinate.
        assert klein_pair(parse_word("b a^2")) == (2, 1)
        assert klein_pair(parse_word("b a^3")) == (3, -1)

    def test_sign_matches_lexicographic_cone(self):
        assert klein_sign(()) == 0
        assert klein_sign(parse_word("a b^-5")) == 1  # t > 0 wins
        assert klein_sign(parse_word("b^2")) == 1
        assert klein_sign(parse_word("a^-1 b^9")) == -1
        assert klein_sign(parse_word("b^-1")) == -1

    def test_empty_word_is_answered_from_the_state(self, monkeypatch):
        # The trichotomy walk asks, per word at n = 1, whether its state
        # is the identity: that reads the pair, with no fold over ().
        ctx = group_context(1)
        calls = []
        real = oracle.klein_pair
        monkeypatch.setattr(oracle, "klein_pair", lambda word, start=(0, 0): calls.append(word) or real(word, start))
        assert oracle_is_identity((), ctx, (0, 0))
        assert not oracle_is_identity((), ctx, (0, 1))
        assert not oracle_is_identity((), ctx, (2, 0))
        assert oracle_is_identity((), ctx)
        assert calls == []
        state = oracle.oracle_state(parse_word("b a"), ctx)
        assert oracle_is_identity(parse_word("a^-1 b^-1"), ctx, state)
        assert len(calls) == 2

    @settings(max_examples=50)
    @given(words(), words())
    def test_pair_is_a_twisted_homomorphism(self, u, v):
        # (t, s)(t', s') = (t + t', s' + (-1)^(t') s)
        tu, su = klein_pair(u)
        tv, sv = klein_pair(v)
        assert klein_pair(concat(u, v)) == (tu + tv, sv + (su if tv % 2 == 0 else -su))


def projective_key(word, ctx):
    """Test-only projective element key: rho up to sign, made canonical
    by a positive first nonzero coefficient, paired with phi."""
    m = rho(word, ctx)
    first = next(c for entry in m for c in entry if c)
    return (m if first > 0 else mat_neg(ring_of(ctx), m), phi(word, ctx))


class TestElementKey:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_key_constant_on_equal_words(self, n):
        ctx = group_context(n)
        pairs = [
            (f"b a^{n} b", "a"),
            ("a a^-1", "1"),
            (f"a^-1 b a^{n}", "b^-1"),
        ]
        for u_text, v_text in pairs:
            u, v = parse_word(u_text), parse_word(v_text)
            assert element_key(u, ctx) == element_key(v, ctx), (n, u_text)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_key_separates_ball3_exactly_as_oracle(self, n):
        ctx = group_context(n)
        ball = list(enumerate_reduced(3))
        keys = [element_key(w, ctx) for w in ball]
        for i, u in enumerate(ball):
            for j in range(i + 1, len(ball)):
                same_key = keys[i] == keys[j]
                same_elt = oracle_is_identity(concat(invert(u), ball[j]), ctx)
                assert same_key == same_elt, (format_word(u), format_word(ball[j]))

    @pytest.mark.parametrize(
        ("n", "radius", "classes"),
        [(2, 7, 711), (3, 7, 1379), (5, 7, 2449), (7, 7, 2829), (63, 6, 1129)],
    )
    def test_exact_key_classes_match_projective_key(self, n, radius, classes):
        # The exact (rho, phi) key and the sign-canonical projective key
        # split the ball into the same classes, first representative
        # for first representative.
        ctx = group_context(n)
        exact, projective = {}, {}
        for w in enumerate_reduced(radius):
            first = exact.setdefault(element_key(w, ctx), w)
            assert first == projective.setdefault(projective_key(w, ctx), w), (n, format_word(w))
        assert len(exact) == len(projective) == classes


def random_word(rng, syllables, max_exp=3):
    """Alternating generators, exponents in +-1..max_exp."""
    gen = rng.randrange(2)
    out = []
    for _ in range(syllables):
        out.append((gen, rng.choice((-1, 1)) * rng.randint(1, max_exp)))
        gen ^= 1
    return tuple(out)


def exact_rotation_factors(q):
    """For j = 1..q//2, the largest over i <= j of the exact row-sum norm
    of (x0, x1) -> (x0, x1) rho(a)^(+-i) on digit vectors, whose entries
    are x0 U_i + x1 U_(i-1) and x0 U_(i-1) + x1 U_(i-2) up to sign and
    order: the growth factor that oracle._plan bounds through the
    triangle inequality."""
    ring = ring_of(group_context(q - 1))

    def rows(r):  # |digits| of r lam^j, j < deg, summed per output digit
        cols = [r]
        for _ in range(ring.deg - 1):
            cols.append(ring.mul(cols[-1], ring.lam))
        return [sum(map(abs, row)) for row in zip(*cols)]

    chebyshev = [ring.zero, ring.one]  # U_-1, U_0
    for _ in range(q // 2):
        chebyshev.append(ring.add(ring.mul(ring.lam, chebyshev[-1]), ring.neg(chebyshev[-2])))
    sums = [rows(u) for u in chebyshev]
    out, best = [], 0
    for i in range(2, len(sums)):
        for hi, lo in ((sums[i], sums[i - 1]), (sums[i - 1], sums[i - 2])):
            best = max(best, max(map(sum, zip(hi, lo))))
        out.append(best)
    return out


def reference_report(word, ctx):
    """oracle_report from the tuple fold."""
    ring = ring_of(ctx)
    m, value = tuple_rho(word, ctx), phi(word, ctx)
    ident = mat_identity(ring)
    identity = klein_pair(word) == (0, 0) if ctx.n == 1 else (value == 0 and m == ident)
    return identity, proj_eq(ring, m, ident), value


class TestPackedFold:
    """oracle._fold (one packed int per entry at odd q, an even and an odd
    half at even q, width by certificate) against the test-only tuple
    fold, n = 1..63."""

    @given(st.integers(min_value=1, max_value=63), words(max_syllables=40, max_exp=300))
    def test_matches_tuple_fold(self, n, w):
        # Examples come from the Hypothesis profile: 100 by default, 500
        # under HYPOTHESIS_PROFILE=ci-deep.
        ctx = group_context(n)
        want = tuple_rho(w, ctx)
        assert rho(w, ctx) == want, (n, format_word(w))
        assert oracle_report(w, ctx) == reference_report(w, ctx), (n, format_word(w))
        if n > 1:
            assert element_key(w, ctx) == (want, phi(w, ctx)), (n, format_word(w))

    @given(st.sampled_from(range(3, 64, 2)), st.data())
    def test_long_check_words_at_odd_n(self, n, data):
        # The words `sign` checks, w^-1 witness for w of 100 to 400
        # mixed-sign syllables: at odd n (even q) they fold on halves,
        # whose digits grow over w^-1 and shrink back over the witness.
        ctx = group_context(n)
        gen = data.draw(st.sampled_from((GEN_A, GEN_B)))
        exps = data.draw(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=100, max_size=400))
        w = tuple((gen ^ (i % 2), exp) for i, exp in enumerate(exps))
        check = concat(invert(w), decide_sign(w, ctx).witness)
        assert rho(check, ctx) == tuple_rho(check, ctx), (n, format_word(w))

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 31, 63])
    def test_million_shear_in_one_syllable(self, n):
        ctx = group_context(n)
        for text in ("b^1000000", "b^-1000000", "a b^1000000 a^-1", "a^2 b^-1000000 a b^1000000 a^-3 b^999999"):
            w = parse_word(text)
            assert rho(w, ctx) == tuple_rho(w, ctx), (n, text)

    @pytest.mark.parametrize("n", [4, 7, 31, 63])
    def test_witness_alphabet(self, n):
        # Witnesses are spelled in a^+-1, a^-(n-1), b^+-1 and mostly b^-1;
        # words of 40 to 800 such syllables widen on the way.
        ctx = group_context(n)
        rng = random.Random(f"witness alphabet:{n}")
        for length in (40, 200, 800):
            w = word_from_syllables(
                (GEN_A, rng.choice((1, -1, 1 - n))) if i % 2 else (GEN_B, rng.choice((1, -1, -1, -1)))
                for i in range(length)
            )
            assert rho(w, ctx) == tuple_rho(w, ctx), (n, length)

    @pytest.mark.parametrize("half", [-32, -31, 31, 32, 33])
    def test_runs_of_half_turns_at_n63(self, half):
        # a^(q//2) at n = 63 is the largest rotation: 32 steps, each one
        # multiplying by lam, between shears of either sign.
        ctx = group_context(63)
        for k in (1, -1, 2, 300):
            w = word_from_syllables([(GEN_A, half), (GEN_B, k), (GEN_A, half), (GEN_B, -k)] * 12)
            assert rho(w, ctx) == tuple_rho(w, ctx), (half, k)

    @pytest.mark.parametrize("n", [4, 7, 31, 63])
    @pytest.mark.parametrize("name", ["_fits", "_widen"])
    def test_prefixes_around_the_first_certificate_and_widening(self, monkeypatch, n, name):
        # K is the shortest prefix whose fold calls the certificate (or
        # widens), at odd q (n = 4) and on halves (n = 7, 31, 63); the
        # prefixes of K - 1, K and K + 1 syllables still fold to the
        # tuple fold's matrix.
        ctx = group_context(n)
        word = random_word(random.Random(f"prefix:{n}"), 400)
        calls = []
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *args: calls.append(1) or real(*args))

        def calls_it(k):
            calls.clear()
            oracle._fold(word[:k], ctx)
            return bool(calls)

        assert calls_it(len(word)), (n, name)
        lo, hi = 0, len(word)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if calls_it(mid) else (mid, hi)
        assert not calls_it(hi - 1) and calls_it(hi)
        for k in (hi - 1, hi, hi + 1):
            assert rho(word[:k], ctx) == tuple_rho(word[:k], ctx), (n, name, k)

    def test_digits_growing_almost_as_fast_as_the_bound(self):
        # At small deg the shear factor 1 + |k| (1 + max|m_i|) is nearly
        # what a huge b^k does to the digits, so words mixing shears of
        # 10 to 56 bits with short syllables reach the width with little
        # to spare: a certificate that claimed more headroom than it
        # proves would overflow here, where exponents up to 300 leave a
        # margin of many bits.
        rng = random.Random("near the bound")
        for _ in range(250):
            ctx = group_context(rng.randint(3, 13))
            gen, syllables = rng.randrange(2), []
            for _ in range(rng.randint(10, 80)):
                huge = gen == GEN_B and rng.random() < 0.3
                exp = rng.getrandbits(rng.randint(10, 56)) | 1 if huge else rng.randint(1, 3)
                syllables.append((gen, rng.choice((1, -1)) * exp))
                gen ^= 1
            w = tuple(syllables)
            assert rho(w, ctx) == tuple_rho(w, ctx), (ctx.n, format_word(w))

    def test_minimum_start_width_widens_every_word(self, monkeypatch):
        # Width 3 holds the identity and nothing more, and no certificate
        # fits in it: every word that takes a step (a shear, or a rotation
        # that is not a multiple of a half turn) widens.  n = 3 and 5 keep
        # their halves as plain ints and have no width.
        monkeypatch.setattr(oracle, "_START_WIDTH", 3)
        widened = []
        real = oracle._widen
        monkeypatch.setattr(oracle, "_widen", lambda *args: widened.append(1) or real(*args))
        rng = random.Random("minimum width")
        for n in (4, 6, 7, 9, 12, 31, 62, 63):
            ctx = group_context(n)
            for syllables in (1, 2, 5, 40, 160):
                for max_exp in (3, 300):
                    w = random_word(rng, syllables, max_exp)
                    widened.clear()
                    assert rho(w, ctx) == tuple_rho(w, ctx), (n, format_word(w))
                    steps = any(gen == GEN_B or exp % ctx.q for gen, exp in w)
                    assert bool(widened) == steps, (n, format_word(w))

    @pytest.mark.parametrize("n", [7, 31, 63])
    def test_a_certificate_that_always_passes_gives_a_wrong_matrix(self, monkeypatch, n):
        # (a b^3)^40 needs over 110 bits per digit at these n, more than
        # the start width; trusting the bound without a real certificate
        # lets the digits overflow, which the suite must see.
        ctx = group_context(n)
        w = parse_word(" ".join(["a b^3"] * 40))
        want = tuple_rho(w, ctx)
        assert rho(w, ctx) == want
        monkeypatch.setattr(oracle, "_fits", lambda entries, certificate: True)
        assert rho(w, ctx) != want

    @settings(max_examples=200)
    @given(st.sampled_from([5, 7, 8, 12, 64]), st.integers(min_value=80, max_value=200), st.data())
    def test_certificate_passes_exactly_when_digits_are_small(self, q, width, data):
        # Digits near +-2^(B - g), inside the loose bound 2^(B - 2), in
        # the layout the fold packs at q: deg digits at odd q, deg / 2
        # (the even or the odd half of an entry) at even q.
        guard, size = oracle._plan(q)[4:]
        assert size == (len(oracle._plan(q)[1]) - 1) // (2 if q % 2 == 0 else 1)
        edge = 1 << (width - guard)
        near = st.sampled_from([0, 1, -1, edge - 1, edge, edge + 1, -edge, -edge - 1, (1 << (width - 2)) - 1])
        digits = data.draw(st.lists(near | st.integers(-(1 << (width - 2)) + 1, (1 << (width - 2)) - 1), min_size=size, max_size=size))
        certificate = oracle._layout(q, width)[2]
        fits = oracle._fits((oracle._pack(digits, width),), certificate)
        assert fits == all(-edge <= c < edge for c in digits), digits
        assert oracle._unpack(oracle._pack(digits, width), width, size) == tuple(digits)

    @given(st.sampled_from([5, 7, 8, 12, 64]), st.integers(min_value=3, max_value=200), st.data())
    def test_one_combined_certificate_is_the_per_entry_test(self, q, width, data):
        # The certificate ORs the offset entries Y = x + K and tests the
        # OR once; the reference tests each Y.  Entries are drawn as Y:
        # random (negative ones included), the edges 0, -1, top - 1 and
        # top, and a passing Y with one guard bit set.  At width <= g the
        # certificate is (0, 0, 0), which nothing passes.
        offset, guard, top = certificate = oracle._layout(q, width)[2]
        bits = [i for i in range(guard.bit_length()) if guard >> i & 1]
        passing = st.integers(0, max(top - 1, 0)).map(lambda y: y & ~guard)
        edges = st.sampled_from([0, -1, top - 1, top, top + 1, -top])
        one_guard_bit = st.tuples(passing, st.sampled_from(bits or [0])).map(lambda yb: yb[0] | 1 << yb[1])
        ys = data.draw(st.lists(
            passing | edges | one_guard_bit | st.integers(-2 * top - 2, 2 * top + 2),
            min_size=1,
            max_size=8,
        ))
        entries = tuple(y - offset for y in ys)
        assert oracle._fits(entries, certificate) == reference_fits(entries, certificate), ys

    @pytest.mark.parametrize("q", [5, 8, 64])
    def test_combined_certificate_at_its_edges(self, q):
        # Every entry passing, then one of four entries at top - 1 (passes
        # if it misses G), at top, at -1 or with one guard bit set.
        offset, guard, top = certificate = oracle._layout(q, 160)[2]
        high_guard = 1 << (guard.bit_length() - 1)
        fine = (0, 1, offset, offset - 1)
        assert oracle._fits(tuple(y - offset for y in fine), certificate)
        for bad in (top, -1, high_guard, offset | high_guard, top + offset):
            entries = tuple(y - offset for y in fine[:3] + (bad,))
            assert not oracle._fits(entries, certificate), bad
            assert not reference_fits(entries, certificate), bad
        edge = tuple(y - offset for y in fine[:3] + (top - 1,))
        assert oracle._fits(edge, certificate) == reference_fits(edge, certificate) == (not (top - 1) & guard)

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 12, 32, 64])
    def test_growth_bounds_cover_the_exact_factors(self, q):
        deg, modulus, shear_bits, rotation_bits, guard, _ = oracle._plan(q)
        exact = exact_rotation_factors(q)
        assert len(rotation_bits) == len(exact) + 1 == q // 2 + 1
        for steps, factor in enumerate(exact, start=1):
            assert factor < 1 << rotation_bits[steps], (q, steps)
        ring = ring_of(group_context(q - 1))
        assert max(map(abs, ring.mul(ring.lam, (0,) * (deg - 1) + (1,)))) + 1 < 1 << shear_bits
        # Every rotation fits under one certificate, so none forces a widening.
        assert max(rotation_bits) <= guard - 3


class TestWidening:
    """oracle._widen repacks the packed ints (oracle._repack, unpacked at
    one width and packed at the other) at a width that follows the bound
    the fold holds, without measuring the digits; _repack against the
    reference that unpacks and repacks every digit one at a time."""

    @pytest.mark.parametrize("digits", range(1, 33))
    def test_respread_at_every_digit_count(self, digits):
        # Digits at their edges, 0, +-1 and +-(2^(B - 2) - 1), at widths
        # that are and are not multiples of 8 (3 is the least exact one).
        for width, wider in ((3, 99), (3, 3), (13, 16), (96, 160), (101, 227), (544, 608)):
            edge = (1 << (width - 2)) - 1
            rows = [[c] * digits for c in (0, 1, -1, edge, -edge)]
            rows += [[(-1) ** i * edge for i in range(digits)], [(i % 3 - 1) * edge for i in range(digits)]]
            packed = tuple(oracle._pack(row, width) for row in rows)
            assert oracle._repack(packed, digits, width, wider) == reference_repack(packed, digits, width, wider)

    def test_digit_counts_of_the_fold(self):
        # The counts the fold packs lie in 1..32 and include ones that are
        # not powers of two: 15 at q = 31, 18 at q = 63.
        counts = {q: oracle._plan(q)[5] for q in range(3, 65)}
        assert set(counts.values()) <= set(range(1, 33))
        assert counts[31] == 15 and counts[63] == 18 and counts[64] == 16

    @settings(max_examples=300)
    @given(st.integers(1, 32), st.integers(3, 300), st.integers(0, 200), st.data())
    def test_respread_is_unpack_then_pack(self, digits, width, more, data):
        edge = (1 << (width - 2)) - 1
        digit = st.sampled_from([0, 1, -1, edge, -edge]) | st.integers(-edge, edge)
        rows = data.draw(st.lists(st.lists(digit, min_size=digits, max_size=digits), min_size=1, max_size=8))
        packed = tuple(oracle._pack(row, width) for row in rows)
        wider = width + more
        assert oracle._repack(packed, digits, width, wider) == reference_repack(packed, digits, width, wider)

    @settings(max_examples=300)
    @given(st.integers(1, 32), st.integers(3, 300), st.integers(0, 80), st.sampled_from([64, 76]), st.data())
    def test_widening_keeps_the_bound(self, digits, width, grow, guard, data):
        # The fold holds a bound 2^bits on the digits, bits <= B - 2; the
        # widening keeps it, moves to the least multiple of 16 bits with
        # room for it, grow more bits, the guard and the slack, and hands
        # back the same digits there, without a single certificate.
        bits = data.draw(st.integers(1, width - 2))
        top = (1 << bits) - 1
        digit = st.sampled_from([0, 1, -1, top, -top]) | st.integers(-top, top)
        rows = data.draw(st.lists(st.lists(digit, min_size=digits, max_size=digits), min_size=1, max_size=8))
        packed = tuple(oracle._pack(row, width) for row in rows)
        with mock.patch.object(oracle, "_fits", wraps=oracle._fits) as fits:
            entries, wider, kept = oracle._widen(packed, digits, width, bits, grow, guard)
        assert fits.call_count == 0
        assert kept == bits and bits + grow <= wider - 2
        assert wider % 16 == 0 and wider - 16 < bits + grow + guard + oracle._SLACK <= wider
        assert entries == reference_repack(packed, digits, width, wider)
        assert [reference_digits(x, wider, digits) for x in entries] == rows

    @pytest.mark.parametrize("n", [7, 63])
    def test_shears_that_outgrow_the_guard(self, monkeypatch, n):
        # b^(2^70) grows the digits by more than any certificate leaves
        # room for (g - 3 bits), so the fold widens at such a syllable
        # without trying one, from the bound alone.
        ctx = group_context(n)
        guard = oracle._plan(ctx.q)[4]
        w = word_from_syllables([(GEN_A, 1), (GEN_B, 1 << 70)] * 50)  # (a b^(2^70))^50
        grows = []
        real = oracle._widen
        monkeypatch.setattr(oracle, "_widen", lambda *args: grows.append(args[4]) or real(*args))
        assert rho(w, ctx) == tuple_rho(w, ctx), n
        assert grows and all(grow > guard - 3 for grow in grows), (n, grows)


def long_words(n):
    """The ci-deep long words at n: seven of 1,000 to 2,000 syllables and
    one of 4,000."""
    rng = random.Random(f"long words:{n}")
    return [random_word(rng, length) for length in [rng.randint(1000, 2000) for _ in range(7)] + [4000]]


def fold_counting_widenings(word, ctx):
    """(oracle._fold's fold of word, how many times the fold widened)."""
    real, calls = oracle._widen, []
    oracle._widen = lambda *args: calls.append(1) or real(*args)
    try:
        return oracle._fold(word, ctx)[1], len(calls)
    finally:
        oracle._widen = real


# Widenings per long word when every widening first measured the digits by
# certificates at 16-bit bands (commit 5e03b91), counted there with
#   mkdir parent && git archive 5e03b91 src | tar -x -C parent
#   PYTHONPATH=parent/src:tests python -c "import test_oracle as t; from heckeord.context import group_context as g; print({n: [t.fold_counting_widenings(w, g(n))[1] for w in t.long_words(n)] for n in (7, 31, 63)})"
MEASURED_WIDENINGS = {
    7: [29, 21, 21, 26, 27, 34, 29, 74],
    31: [36, 32, 31, 21, 37, 35, 38, 81],
    63: [22, 17, 20, 32, 26, 23, 32, 65],
}


def pinned_words(n):
    """The words whose width decisions test_every_width_decision_is_pinned
    fixes: seeded random words of 20, 320 and 2,000 syllables, (a b^3)^40
    and (a b^(2^70))^50, whose shears outgrow the guard."""
    rng = random.Random(f"pinned widths:{n}")
    return {
        "random 20": random_word(rng, 20),
        "random 320": random_word(rng, 320),
        "random 2000": random_word(rng, 2000),
        "(a b^3)^40": WIDE,
        "(a b^(2^70))^50": word_from_syllables([(GEN_A, 1), (GEN_B, 1 << 70)] * 50),
    }


def width_decisions(n):
    """Per pinned word at n: (width, bits) of its fold's state and how many
    times the fold called _fits and _widen."""
    ctx = group_context(n)
    calls = {"_fits": 0, "_widen": 0}
    reals = {name: getattr(oracle, name) for name in calls}

    def counting(name):
        def call(*args):
            calls[name] += 1
            return reals[name](*args)
        return call

    got = {}
    try:
        for name in calls:
            setattr(oracle, name, counting(name))
        for label, w in pinned_words(n).items():
            calls.update(dict.fromkeys(calls, 0))
            _, (_, _, width, bits) = oracle._fold(w, ctx)
            got[label] = (width, bits, calls["_fits"], calls["_widen"])
    finally:
        for name, real in reals.items():
            setattr(oracle, name, real)
    return got


# (width, bits, _fits calls, _widen calls) of each pinned word's fold,
# counted at commit 47e5dc4, when a helper of the fold (_room) tried each
# certificate, with
#   mkdir parent && git archive 47e5dc4 src | tar -x -C parent
#   PYTHONPATH=parent/src:tests python -c "import test_oracle as t; print({n: t.width_decisions(n) for n in (4, 7, 31, 63)})"
PINNED_WIDTHS = {
    4: {
        "random 20": (96, 62, 0, 0),
        "random 320": (384, 360, 14, 3),
        "random 2000": (2112, 2027, 92, 20),
        "(a b^3)^40": (208, 181, 2, 1),
        "(a b^(2^70))^50": (3856, 3751, 0, 25),
    },
    7: {
        "random 20": (96, 91, 0, 0),
        "random 320": (512, 469, 21, 4),
        "random 2000": (2528, 2458, 133, 23),
        "(a b^3)^40": (208, 201, 3, 1),
        "(a b^(2^70))^50": (3952, 3851, 0, 25),
    },
    31: {
        "random 20": (96, 58, 3, 0),
        "random 320": (528, 499, 61, 4),
        "random 2000": (2720, 2694, 392, 24),
        "(a b^3)^40": (208, 167, 14, 1),
        "(a b^(2^70))^50": (3728, 3628, 21, 27),
    },
    63: {
        "random 20": (96, 70, 6, 0),
        "random 320": (624, 619, 104, 4),
        "random 2000": (2752, 2725, 668, 21),
        "(a b^3)^40": (224, 172, 25, 1),
        "(a b^(2^70))^50": (4256, 4134, 23, 27),
    },
}


@pytest.mark.parametrize("n", [4, 7, 31, 63])
def test_every_width_decision_is_pinned(n):
    # Odd q with packed ints (n = 4) and packed halves (n = 7, 31, 63):
    # every certificate passes or fails, and every widening happens, where
    # and as it did at that commit, including the widenings of
    # (a b^(2^70))^50 that no certificate is tried for (grow > g - 3).
    assert width_decisions(n) == PINNED_WIDTHS[n]


@deep_only
@pytest.mark.parametrize("n", [7, 31, 63])
def test_long_random_words_match_the_tuple_fold(n):
    # Words of 1,000 to 2,000 syllables, and one of 4,000, widen 10 or more
    # times each, and fewer times than when the digits were measured at
    # every widening; the matrix must still be exact.
    ctx = group_context(n)
    for w, measured in zip(long_words(n), MEASURED_WIDENINGS[n], strict=True):
        state, widened = fold_counting_widenings(w, ctx)
        assert oracle._coefficients(state, ctx) == tuple_rho(w, ctx), (n, len(w))
        assert 10 <= widened < measured, (n, len(w), widened, measured)


class TestResumedFold:
    """_fold from the state of u over v is the fold of u v, the same state
    and the same matrix as the tuple fold's; klein_pair likewise at n = 1."""

    @given(
        st.integers(min_value=1, max_value=63),
        words(max_syllables=20, max_exp=300),
        words(max_syllables=20, max_exp=300),
    )
    def test_resumed_matches_whole(self, n, u, v):
        # u + v is the syllables one after the other, as the fold reads
        # them; the tuple fold reads them the same way.
        ctx = group_context(n)
        whole = oracle._fold(u + v, ctx)
        assert oracle._fold(v, ctx, oracle._fold(u, ctx)) == whole
        assert oracle._coefficients(whole[1], ctx) == tuple_rho(u + v, ctx)

    @pytest.mark.parametrize("n", [3, 5, 7, 63])
    def test_every_split_of_a_long_word(self, n):
        # Halves of one digit (n = 3, 5) and packed halves (n = 7, 63):
        # the state resumed at every 10th syllable is the whole word's.
        ctx = group_context(n)
        w = random_word(random.Random(f"split:{n}"), 200, 300)
        whole = oracle._fold(w, ctx)
        for k in range(0, len(w) + 1, 10):
            assert oracle._fold(w[k:], ctx, oracle._fold(w[:k], ctx)) == whole, (n, k)
        assert oracle._coefficients(whole[1], ctx) == tuple_rho(w, ctx)

    @pytest.mark.parametrize("n", [7, 31, 63])
    def test_widening_inside_the_resumed_part(self, monkeypatch, n):
        # (a b^3)^40 outgrows the start width at these n: resumed after a
        # short u, the widening happens in the resumed part.
        ctx = group_context(n)
        u, v = parse_word("a^5 b^-2"), parse_word(" ".join(["a b^3"] * 40))
        state = oracle._fold(u, ctx)
        widened = []
        real = oracle._widen
        monkeypatch.setattr(oracle, "_widen", lambda *args: widened.append(1) or real(*args))
        resumed = oracle._fold(v, ctx, state)
        assert widened and resumed[1][2] > state[1][2]
        assert resumed == oracle._fold(u + v, ctx)
        assert oracle._coefficients(resumed[1], ctx) == tuple_rho(u + v, ctx)

    def test_letter_by_letter(self):
        # The trichotomy suite folds the ball one letter at a time.
        ctx = group_context(5)
        w = parse_word("a^3 b^-2 a^-4 b a^7")
        state = oracle._fold((), ctx)
        for gen, exp in w:
            for _ in range(abs(exp)):
                state = oracle._fold(((gen, 1 if exp > 0 else -1),), ctx, state)
        assert oracle._coefficients(state[1], ctx) == tuple_rho(w, ctx) == rho(w, ctx)

    @given(words(max_syllables=12, max_exp=9), words(max_syllables=12, max_exp=9))
    def test_klein_pair_resumed(self, u, v):
        assert klein_pair(v, klein_pair(u)) == klein_pair(u + v)

    @given(st.integers(min_value=1, max_value=63), words(max_syllables=20, max_exp=300), words(max_syllables=20, max_exp=300))
    def test_oracle_state_is_phi_and_the_fold(self, n, u, v):
        # Fresh and resumed, oracle_state is _fold's state, whose phi
        # (summed in the fold's own pass at the packed layouts) is phi of
        # the word; at n = 1 the state is the Klein pair.
        ctx = group_context(n)
        fresh, resumed = oracle_state(v, ctx), oracle_state(v, ctx, oracle_state(u, ctx))
        if n == 1:
            assert (fresh, resumed) == (klein_pair(v), klein_pair(u + v))
            return
        assert fresh == oracle._fold(v, ctx) and fresh[0] == phi(v, ctx)
        assert resumed == oracle._fold(u + v, ctx) and resumed[0] == phi(u, ctx) + phi(v, ctx)


class TestOneFoldPerQuery:
    """At n >= 2 every oracle query is one _fold call, and phi is summed
    only inside it: on the word itself at the plain layouts, on the two
    exponent sums a^ta b^tb at the packed ones."""

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 63])
    @pytest.mark.parametrize(
        "query", [oracle_state, oracle_is_identity, b_power_of, oracle_report, element_key, rho], ids=lambda f: f.__name__
    )
    def test_one_fold_and_phi_only_inside_it(self, monkeypatch, n, query):
        ctx = group_context(n)
        w = random_word(random.Random(f"one fold:{n}"), 200)
        folded, summed = [], []
        real_fold, real_phi = oracle._fold, oracle.phi
        monkeypatch.setattr(oracle, "_fold", lambda *args: folded.append(args[0]) or real_fold(*args))
        monkeypatch.setattr(oracle, "phi", lambda word, c: summed.append(word) or real_phi(word, c))
        query(w, ctx)
        assert folded == [w]
        if n in (2, 3):
            assert summed == [w]
        else:
            sums = tuple((gen, sum(exp for g, exp in w if g == gen)) for gen in (GEN_A, GEN_B))
            assert summed == [sums]

    @given(st.integers(min_value=1, max_value=63), words(max_syllables=20, max_exp=300))
    def test_phi_read_off_the_fold_is_phi_of_the_word(self, n, w):
        # Every layout, the Klein pair at n = 1 included.
        ctx = group_context(n)
        assert oracle_report(w, ctx)[2] == phi(w, ctx)
        assert element_key(w, ctx) == (klein_pair(w) if n == 1 else (rho(w, ctx), phi(w, ctx)))


# (a b^3)^40 outgrows the fold's start width at n >= 7, so a word with
# it and its inverse inside ends at a wider fold than one without.
WIDE = parse_word(" ".join(["a b^3"] * 40))


def respellings(u, n):
    """Words for u's element whose folds end otherwise: u r (the relator r
    ends its fold with the other flip at n >= 2), u WIDE r WIDE^-1 (a
    wider fold at n >= 7) and a product with relator conjugates."""
    r = relator(n)
    return {
        "relator": concat(u, r),
        "wide": concat(u, WIDE, r, invert(WIDE)),
        "conjugate": concat(u, conjugate(parse_word("b^2 a^-3"), r)),
    }


class TestSameElement:
    """same_element on two oracle_states is element_key equality of their words."""

    @given(
        st.integers(min_value=1, max_value=63),
        words(max_syllables=8, max_exp=5),
        st.sampled_from(["relator", "wide", "conjugate", "delta", "delta-squared", "random"]),
        words(max_syllables=8, max_exp=5),
    )
    def test_is_element_key_equality(self, n, u, kind, other):
        ctx = group_context(n)
        delta = gen_power(GEN_A, ctx.q)
        if kind in ("delta", "delta-squared"):
            # rho(delta) = -I and rho(delta^2) = I: only phi tells these apart.
            v = concat(u, delta, delta) if kind == "delta-squared" else concat(u, delta)
        elif kind == "random":
            v = other
        else:
            v = respellings(u, n)[kind]
        expected = element_key(u, ctx) == element_key(v, ctx)
        assert same_element(oracle_state(u, ctx), oracle_state(v, ctx), ctx) == expected
        assert same_element(oracle_state(v, ctx), oracle_state(u, ctx), ctx) == expected

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 31, 63])
    def test_opposite_flips_at_one_width(self, n):
        ctx = group_context(n)
        u = parse_word("a^2 b^-1 a b^3")
        su, sv = oracle_state(u, ctx), oracle_state(respellings(u, n)["relator"], ctx)
        (_, u_flip, u_width, _), (_, v_flip, v_width, _) = su[1], sv[1]
        assert u_flip != v_flip and u_width == v_width
        assert same_element(su, sv, ctx)
        assert not same_element(su, oracle_state(concat(u, gen_power(GEN_A, ctx.q)), ctx), ctx)

    @pytest.mark.parametrize("n", [7, 8, 31, 63])
    def test_folds_of_different_widths(self, n):
        ctx = group_context(n)
        u = parse_word("a^2 b^-1 a b^3")
        wide = respellings(u, n)["wide"]
        su, sv = oracle_state(u, ctx), oracle_state(wide, ctx)
        assert su[1][2] < sv[1][2]
        assert same_element(su, sv, ctx) and same_element(sv, su, ctx)
        for v in (concat(wide, parse_word("b")), concat(wide, gen_power(GEN_A, 2 * ctx.q))):
            assert not same_element(su, oracle_state(v, ctx), ctx)

    @pytest.mark.parametrize("n", [7, 8, 30, 31, 62, 63])
    def test_long_words_across_widths(self, n):
        # Words of 200 to 400 syllables, respelled with a long conjugate of
        # the relator in front or behind so that the folds end at other
        # widths; then moved off the element by b, delta (rho negated),
        # delta^2 (rho alike), each of which moves phi, or by a commutator
        # (phi alike, rho not).
        ctx = group_context(n)
        rng = random.Random(f"across widths:{n}")
        delta, commutator = gen_power(GEN_A, ctx.q), parse_word("a b a^-1 b^-1")
        widths = 0
        for _ in range(3):
            u, x = random_word(rng, rng.randint(200, 400)), random_word(rng, rng.randint(200, 400))
            su, key = oracle_state(u, ctx), element_key(u, ctx)
            for same in (concat(x, relator(n), invert(x), u), concat(u, x, relator(n), invert(x))):
                moved = (parse_word("b"), delta, concat(delta, delta), commutator)
                for v in (same, *(concat(same, m) for m in moved)):
                    sv = oracle_state(v, ctx)
                    widths += su[1][2] != sv[1][2]
                    expected = element_key(v, ctx) == key
                    assert expected == (v is same), (n, format_word(v))
                    assert same_element(su, sv, ctx) == same_element(sv, su, ctx) == expected
        assert widths >= 15, widths

    @pytest.mark.parametrize("n", [3, 5, 7, 63])
    def test_halves_at_even_q(self, n):
        # Even q: each entry is two packed ints, eight in all.
        ctx = group_context(n)
        u = parse_word("b a^-2 b^2 a")
        for v in respellings(u, n).values():
            su, sv = oracle_state(u, ctx), oracle_state(v, ctx)
            assert len(su[1][0]) == len(sv[1][0]) == 8
            assert same_element(su, sv, ctx)
        assert not same_element(oracle_state(u, ctx), oracle_state(concat(u, relator(n), parse_word("a")), ctx), ctx)

    def test_klein_pairs_at_n_1(self):
        ctx = group_context(1)
        u = parse_word("a b^2 a^-3 b")
        for v in respellings(u, 1).values():
            assert same_element(oracle_state(u, ctx), oracle_state(v, ctx), ctx)
        assert not same_element(oracle_state(u, ctx), oracle_state(concat(u, parse_word("b")), ctx), ctx)


def syllables(length):
    """Words of up to length syllables, each b^(+-1) or a^(+-1..3)."""
    letter = st.tuples(st.sampled_from([GEN_A, GEN_B]), st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return st.lists(letter, max_size=length).map(tuple)


@st.composite
def cut_lists(draw, u, v, ctx):
    """Interior cut lists for u and v: the producer's (right when v is u's
    witness in ctx's group), one of them spoiled in one place (a cut at
    the far end standing in for an empty list), or drawn at random."""
    kind = draw(st.sampled_from(["producer", "spoiled", "random", "random-tiling"]))
    if kind in ("producer", "spoiled"):
        cuts = list(cone.certify_sign(u, ctx, draw(st.integers(1, 6)))[1])
        if kind == "spoiled":
            cuts = cuts or [(len(u), len(v), ())]
            i = draw(st.integers(0, len(cuts) - 1))
            k, p, z = cuts[i]
            cuts[i] = draw(
                st.sampled_from(
                    [(k + 1, p, z), (k, p + 1, z), (max(0, k - 1), p, z), (k, max(0, p - 1), z), (k, p, z + ((GEN_B, 1),))]
                )
                | st.tuples(st.just(k), st.just(p), syllables(3))
            )
            if draw(st.booleans()):
                del cuts[draw(st.integers(0, len(cuts) - 1))]
        return cuts
    cut = st.tuples(st.integers(0, len(u)), st.integers(0, len(v)), syllables(3))
    cuts = draw(st.lists(cut, max_size=5))
    if kind == "random-tiling":
        ks, ps = sorted(k for k, _, _ in cuts), sorted(p for _, p, _ in cuts)
        cuts = [(k, p, z) for k, p, (_, _, z) in zip(ks, ps, cuts)]
    return cuts


class TestChain:
    """oracle_chain checks u = v link by link between interior cuts
    (k, p, z) that claim u[:k] = v[:p] z, from the two ends it adds
    itself; it trusts nothing from the cuts."""

    @given(st.integers(1, 63), syllables(12), st.sampled_from(["witness", "respelled", "random"]), st.data())
    def test_true_only_when_the_words_are_equal(self, n, u, kind, data):
        # Sound for any cut list: wrong, non-monotone, or naming an end
        # again, with a nonempty z there.
        ctx = group_context(n)
        if kind == "witness":
            v = decide_sign(u, ctx).witness
        elif kind == "respelled":
            v = respellings(u, n)[data.draw(st.sampled_from(["relator", "conjugate"]))]
        else:
            v = data.draw(syllables(12))
        cuts = data.draw(cut_lists(u, v, ctx))
        if oracle_chain(u, v, cuts, ctx):
            assert oracle_equal(u, v, ctx), (n, u, v, cuts)

    @given(st.integers(1, 63), syllables(40), st.integers(1, 8))
    def test_the_producers_cuts_verify(self, n, u, cut):
        ctx = group_context(n)
        result, cuts = cone.certify_sign(u, ctx, cut)
        assert oracle_chain(u, result.witness, cuts, ctx)

    def test_plain_entries_are_the_one_digit_layouts(self):
        # n = 1, 2 (deg 1) and n = 3, 5 (deg 2, even q: halves of one digit).
        # They get one whole-word link; every other layout links CUT syllables.
        links = {n: link_syllables(group_context(n)) for n in range(1, 64)}
        assert [n for n, cut in links.items() if cut is None] == [1, 2, 3, 5]
        assert {cut for cut in links.values() if cut is not None} == {CUT}

    def test_the_one_link_is_oracle_equal(self):
        ctx = group_context(7)
        u = parse_word("a^2 b^-1 a b^3")
        for v in (*respellings(u, 7).values(), concat(u, parse_word("b")), u):
            assert oracle_chain(u, v, [], ctx) == oracle_equal(u, v, ctx)

    @pytest.mark.parametrize("n", [1, 2, 7, 63])
    def test_the_tiling_must_reach_both_ends(self, n):
        # Every link between the cuts holds; the chain's own first or last
        # link, which the cuts leave out, does not.
        ctx = group_context(n)
        x = ((GEN_B, 2), (GEN_A, -3), (GEN_B, 1), (GEN_A, 1))
        a, b = ((GEN_A, 1),), ((GEN_B, 1),)
        u, v = b + x, a + x
        assert not oracle_chain(u, v, [(1, 1, ())], ctx)
        assert not oracle_chain(u, v, [(0, 0, ()), (0, 0, ()), (1, 1, ())], ctx)
        u, v = x + b, x + a
        assert not oracle_chain(u, v, [(len(x), len(x), ())], ctx)
        assert not oracle_chain(u, v, [], ctx)
        # A nonempty z at the end: u = v a^-1 holds as a link, u = v does not.
        u, v = x, x + a
        assert not oracle_chain(u, v, [(len(u), len(v), ((GEN_A, -1),))], ctx)
        assert oracle_chain(u, v + ((GEN_A, -1),), [], ctx)

    @pytest.mark.parametrize("n", [1, 2, 7, 63])
    def test_every_link_is_checked(self, n):
        # Only the last link (or only the first) is wrong.
        ctx = group_context(n)
        x = ((GEN_B, 2), (GEN_A, -3), (GEN_B, 1), (GEN_A, 1))
        a, b = ((GEN_A, 1),), ((GEN_B, 1),)
        for u, v in ((x + b, x + a), (b + x, a + x)):
            cuts = [(1, 1, ()), (len(x), len(x), ())]
            assert not oracle_chain(u, v, cuts, ctx)

    @pytest.mark.parametrize("n", [1, 2, 7, 63])
    def test_cuts_must_not_go_back(self, n):
        # u = b and v = b a^-1 a a^-1 b = b^2: the prefixes u[:1] = v[:3]
        # and the suffixes u[0:] = v[2:] agree, so each of the three links
        # holds, the middle one over empty spans, yet u != v.
        ctx = group_context(n)
        u, v = ((GEN_B, 1),), ((GEN_B, 1), (GEN_A, -1), (GEN_A, 1), (GEN_A, -1), (GEN_B, 1))
        cuts = [(1, 3, ()), (0, 2, ())]
        assert oracle_equal(u[:1], v[:3], ctx) and oracle_equal(u, v[2:], ctx) and not oracle_equal(u, v, ctx)
        assert not oracle_chain(u, v, cuts, ctx)

    @pytest.mark.parametrize("n", [7, 31, 63])
    def test_the_chain_folds_what_it_links(self, monkeypatch, n):
        # Counted, not timed: the links fold each word once, plus each
        # interior z twice, so at most |w| + |witness| + 2 CUT (number of
        # cuts) syllables, however long the word.
        ctx, rng = group_context(n), random.Random(f"chain work:{n}")
        folded, real = [0], oracle.oracle_state
        monkeypatch.setattr(oracle, "oracle_state", lambda w, c, *rest: folded.__setitem__(0, folded[0] + len(w)) or real(w, c, *rest))
        for length in (30, 200, 700):
            w = random_word(rng, length)
            result, cuts = cone.certify_sign(w, ctx, link_syllables(ctx))
            folded[0] = 0
            assert oracle_chain(w, result.witness, cuts, ctx)
            assert len(cuts) >= length // CUT - 1
            assert folded[0] <= len(w) + len(result.witness) + 2 * CUT * len(cuts)
