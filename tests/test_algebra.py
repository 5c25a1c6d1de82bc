"""Exact arithmetic in Z[2cos(pi/q)]: polynomials, the ring, 2x2 matrices."""

import math

import pytest
from hypothesis import given, strategies as st

from heckeord import algebra
from heckeord.algebra import (
    CosRing,
    cyclotomic,
    mat_identity,
    mat_mul,
    mat_pow,
    min_poly_2cos_pi_over,
    poly_divmod_exact,
    poly_trim,
)

# Small-degree cyclotomic polynomials, low degree first (classical table).
CYCLOTOMIC_TABLE = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}

# Minimal polynomials of 2cos(pi/q), derived independently:
# q=2: 0; q=3: 1; q=4: sqrt2; q=5: golden ratio; q=6: sqrt3;
# q=7: x^3 - x^2 - 2x + 1; q=12: x^4 - 4x^2 + 1.
MIN_POLY_TABLE = {
    2: (0, 1),
    3: (-1, 1),
    4: (-2, 0, 1),
    5: (-1, -1, 1),
    6: (-3, 0, 1),
    7: (1, -2, -1, 1),
    12: (1, 0, -4, 0, 1),
}



def poly_mul(p, q):
    """Product of integer polynomials, low degree first."""
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def mat_det(ring, x):
    return ring.add(ring.mul(x[0], x[3]), ring.neg(ring.mul(x[1], x[2])))


def to_float(ring, u):
    """The real value of a ring element, lam = 2cos(pi/q)."""
    lam = 2.0 * math.cos(math.pi / ring.q)
    return sum(c * lam**i for i, c in enumerate(u))


int_polys = st.lists(st.integers(-9, 9), max_size=6).map(poly_trim)


class TestPolynomials:
    @given(int_polys, int_polys, int_polys)
    def test_mul_distributes_over_shifted_add(self, p, q, r):
        def poly_add(u, v):
            out = [0] * max(len(u), len(v))
            for i, c in enumerate(u):
                out[i] += c
            for i, c in enumerate(v):
                out[i] += c
            return poly_trim(out)

        lhs = poly_mul(p, poly_add(q, r))
        rhs = poly_add(poly_mul(p, q), poly_mul(p, r))
        assert lhs == rhs

    @given(int_polys, int_polys)
    def test_mul_commutative(self, p, q):
        assert poly_mul(p, q) == poly_mul(q, p)

    @given(int_polys)
    def test_exact_division_inverts_multiplication(self, p):
        monic = (3, -1, 1)  # x^2 - x + 3: monic, so division stays integral
        assert poly_divmod_exact(poly_mul(p, monic), monic) == p

    def test_inexact_division_raises(self):
        with pytest.raises(ValueError):
            poly_divmod_exact((1, 1, 1), (0, 1))  # (x^2+x+1)/x
        with pytest.raises(ZeroDivisionError):
            poly_divmod_exact((1,), ())

    def test_division_needing_fractions_raises(self):
        with pytest.raises(ValueError, match="^division is not exact over the integers$"):
            poly_divmod_exact((1, 1), (1, 2))  # (x+1)/(2x+1)

    def test_cyclotomic_index_must_be_positive(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            cyclotomic(0)

    def test_cyclotomic_table(self):
        for n, expected in CYCLOTOMIC_TABLE.items():
            assert cyclotomic(n) == expected, f"Phi_{n}"

    def test_cyclotomic_product_recovers_binomial(self):
        # prod over d | n of Phi_d = z^n - 1.
        for n in (6, 10, 12):
            prod = (1,)
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = poly_mul(prod, cyclotomic(d))
            assert prod == tuple([-1] + [0] * (n - 1) + [1])

    def test_min_poly_table(self):
        for q, expected in MIN_POLY_TABLE.items():
            assert min_poly_2cos_pi_over(q) == expected, f"q = {q}"

    @pytest.mark.parametrize("q", range(2, 22))
    def test_min_poly_has_the_right_root_numerically(self, q):
        lam = 2.0 * math.cos(math.pi / q)
        poly = min_poly_2cos_pi_over(q)
        value = sum(c * lam**i for i, c in enumerate(poly))
        assert abs(value) < 1e-9

    @pytest.mark.parametrize("q", range(2, 22))
    def test_min_poly_degree_is_half_totient(self, q):
        n = 2 * q
        totient = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert len(min_poly_2cos_pi_over(q)) - 1 == totient // 2

    def test_min_poly_domain(self):
        with pytest.raises(ValueError):
            min_poly_2cos_pi_over(1)
        with pytest.raises(ValueError):
            min_poly_2cos_pi_over(65)


class TestMinPolyChecks:
    """The factorization checks are real code, so they also hold under -O."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        min_poly_2cos_pi_over.cache_clear()
        yield
        min_poly_2cos_pi_over.cache_clear()

    @pytest.mark.parametrize(
        "phi, message",
        [
            ((1, 1, 1, 1), "even degree"),
            ((2, 0, 0, 0, 1), "exact"),
            ((5, 0, 0, 0, 5), "monic"),
        ],
        ids=["odd-degree", "not-palindromic", "not-monic"],
    )
    def test_forced_failure_raises(self, monkeypatch, phi, message):
        monkeypatch.setattr(algebra, "cyclotomic", lambda n: phi)
        with pytest.raises(RuntimeError, match=message):
            min_poly_2cos_pi_over(5)


def ring_elements(ring: CosRing):
    return st.lists(
        st.integers(-9, 9), min_size=ring.deg, max_size=ring.deg
    ).map(tuple)


@pytest.mark.parametrize("q", [3, 5, 7, 12])
class TestCosRing:
    def test_lambda_satisfies_modulus(self, q):
        ring = CosRing(q)
        acc = ring.zero
        power = ring.one
        for c in ring.modulus:
            acc = ring.add(acc, tuple(c * x for x in power))
            power = ring.mul(power, ring.lam)
        assert acc == ring.zero

    def test_lambda_floats_to_2cos(self, q):
        ring = CosRing(q)
        assert to_float(ring, ring.lam) == pytest.approx(2 * math.cos(math.pi / q))

    def test_ring_laws_on_samples(self, q):
        ring = CosRing(q)

        @given(ring_elements(ring), ring_elements(ring), ring_elements(ring))
        def check(u, v, w):
            assert ring.mul(u, v) == ring.mul(v, u)
            assert ring.mul(ring.mul(u, v), w) == ring.mul(u, ring.mul(v, w))
            assert ring.mul(u, ring.add(v, w)) == ring.add(
                ring.mul(u, v), ring.mul(u, w)
            )
            assert ring.mul(u, ring.one) == u
            assert ring.add(u, ring.neg(u)) == ring.zero

        check()

    def test_reduce_respects_float_value(self, q):
        ring = CosRing(q)
        # lam^(deg+2) reduced symbolically must equal its float power.
        high = [0] * (ring.deg + 2) + [1]
        reduced = ring.reduce(high)
        lam = 2 * math.cos(math.pi / q)
        assert to_float(ring, reduced) == pytest.approx(lam ** (ring.deg + 2))


class TestMatrices:
    def setup_method(self):
        self.ring = CosRing(5)

    def mats(self):
        return st.tuples(*(ring_elements(self.ring),) * 4)

    def test_identity_and_pow(self):
        ring = self.ring
        ident = mat_identity(ring)
        assert mat_pow(ring, ident, 10) == ident
        x = (ring.lam, ring.one, ring.zero, ring.one)
        assert mat_pow(ring, x, 0) == ident
        assert mat_pow(ring, x, 1) == x
        assert mat_pow(ring, x, 3) == mat_mul(ring, x, mat_mul(ring, x, x))

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            mat_pow(self.ring, mat_identity(self.ring), -1)

    def test_det_multiplicative(self):
        ring = self.ring

        @given(self.mats(), self.mats())
        def check(x, y):
            assert mat_det(ring, mat_mul(ring, x, y)) == ring.mul(
                mat_det(ring, x), mat_det(ring, y)
            )

        check()

    def test_mul_associative(self):
        ring = self.ring

        @given(self.mats(), self.mats(), self.mats())
        def check(x, y, z):
            assert mat_mul(ring, mat_mul(ring, x, y), z) == mat_mul(
                ring, x, mat_mul(ring, y, z)
            )

        check()

