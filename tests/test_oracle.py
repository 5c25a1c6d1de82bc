"""Matrix/abelianization oracle and group contexts."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import relator, trivial_words, words
from reference_oracle import reference_fits, tuple_rho
from heckeord import oracle
from heckeord.algebra import mat_identity, mat_mul, mat_neg, mat_pow
from heckeord.cone import decide_sign
from heckeord.context import GroupContext, group_context, ring_of
from heckeord.oracle import (
    b_power_of,
    element_key,
    klein_pair,
    klein_sign,
    oracle_equal,
    oracle_is_identity,
    oracle_report,
    phi,
    rho,
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

    @pytest.mark.parametrize("n", range(1, 11))
    def test_phi_kills_the_relator(self, n):
        ctx = group_context(n)
        assert n * ctx.phi_a + 2 * ctx.phi_b == ctx.phi_a

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

    def test_rho_is_folded_only_when_phi_vanishes(self, monkeypatch):
        calls = []
        real_fold = oracle._fold
        monkeypatch.setattr(oracle, "_fold", lambda word, ctx: calls.append(word) or real_fold(word, ctx))
        assert not oracle_is_identity(parse_word("a"), group_context(2))
        assert oracle_is_identity(parse_word("b a b a^-1"), group_context(1))
        assert calls == []
        assert oracle_is_identity(parse_word("b a^2 b a^-1"), group_context(2))
        assert len(calls) == 1

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
        certificate = oracle._layout(q, width)[3:]
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
        offset, guard, top = certificate = oracle._layout(q, width)[3:]
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
        offset, guard, top = certificate = oracle._layout(q, 160)[3:]
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
        assert oracle._coefficients(whole, ctx) == tuple_rho(u + v, ctx)

    @pytest.mark.parametrize("n", [3, 5, 7, 63])
    def test_every_split_of_a_long_word(self, n):
        # Halves of one digit (n = 3, 5) and packed halves (n = 7, 63):
        # the state resumed at every 10th syllable is the whole word's.
        ctx = group_context(n)
        w = random_word(random.Random(f"split:{n}"), 200, 300)
        whole = oracle._fold(w, ctx)
        for k in range(0, len(w) + 1, 10):
            assert oracle._fold(w[k:], ctx, oracle._fold(w[:k], ctx)) == whole, (n, k)
        assert oracle._coefficients(whole, ctx) == tuple_rho(w, ctx)

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
        assert widened and resumed[2] > state[2]
        assert resumed == oracle._fold(u + v, ctx)
        assert oracle._coefficients(resumed, ctx) == tuple_rho(u + v, ctx)

    def test_letter_by_letter(self):
        # The trichotomy suite folds the ball one letter at a time.
        ctx = group_context(5)
        w = parse_word("a^3 b^-2 a^-4 b a^7")
        state = oracle._fold((), ctx)
        for gen, exp in w:
            for _ in range(abs(exp)):
                state = oracle._fold(((gen, 1 if exp > 0 else -1),), ctx, state)
        assert oracle._coefficients(state, ctx) == tuple_rho(w, ctx) == rho(w, ctx)

    @given(words(max_syllables=12, max_exp=9), words(max_syllables=12, max_exp=9))
    def test_klein_pair_resumed(self, u, v):
        assert klein_pair(v, klein_pair(u)) == klein_pair(u + v)
