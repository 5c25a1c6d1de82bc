"""Exact arithmetic in Z[2cos(pi/q)] and 2x2 matrices over it.

The number lambda = 2cos(pi/q) is an algebraic integer; its minimal
polynomial Psi_q has degree phi(2q)/2 (phi = Euler totient).  We compute
Psi_q from the cyclotomic polynomial Phi_{2q}: since the primitive
2q-th roots of unity come in conjugate pairs z, 1/z with z + 1/z =
2cos(pi k/q), Phi_{2q} is palindromic and factors through the
substitution x = z + 1/z:

    Phi_{2q}(z) = z^m * Psi_q(z + 1/z),   m = deg(Phi_{2q}) / 2.

Solving for Psi_q's coefficients is a triangular elimination: the top
coefficient of z^{m+j} in the remainder is the x^j coefficient, and
subtracting c_j * z^{m-j} (z^2+1)^j clears it.

Everything is integer tuples (coefficients low degree first) so that
equality is literal tuple equality and there is no rounding anywhere.

>>> min_poly_2cos_pi_over(5)   # golden ratio: x^2 - x - 1
(-1, -1, 1)
>>> min_poly_2cos_pi_over(4)   # sqrt(2): x^2 - 2
(-2, 0, 1)
"""

from __future__ import annotations

import functools
import math

IntPoly = tuple[int, ...]  # coefficients, low degree first; () is the zero poly


def poly_trim(coeffs: list[int]) -> IntPoly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_divmod_exact(num: IntPoly, den: IntPoly) -> IntPoly:
    """Quotient of an exact division by a monic-or-unit-leading divisor.

    Raises ValueError if the division leaves a remainder or needs
    fractions; used only where divisibility is a theorem.

    >>> poly_divmod_exact((-1, 0, 0, 0, 1), (-1, 0, 1))   # (z^4-1)/(z^2-1)
    (1, 0, 1)
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num)
    lead = den[-1]
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for k in range(len(rem) - len(den), -1, -1):
        c = rem[k + len(den) - 1]
        if c % lead != 0:
            raise ValueError("division is not exact over the integers")
        q = c // lead
        quot[k] = q
        if q:
            for i, d in enumerate(den):
                rem[k + i] -= q * d
    if any(rem):
        raise ValueError("division left a nonzero remainder")
    return poly_trim(quot)


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, by dividing z^n - 1 by the others.

    >>> cyclotomic(1)
    (-1, 1)
    >>> cyclotomic(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    num: IntPoly = tuple([-1] + [0] * (n - 1) + [1])  # z^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = poly_divmod_exact(num, cyclotomic(d))
    return num


@functools.lru_cache(maxsize=None)
def min_poly_2cos_pi_over(q: int) -> IntPoly:
    """Minimal polynomial (monic, integer) of 2cos(pi/q), for 2 <= q <= 64.

    >>> min_poly_2cos_pi_over(2)
    (0, 1)
    >>> min_poly_2cos_pi_over(3)
    (-1, 1)
    >>> min_poly_2cos_pi_over(7)
    (1, -2, -1, 1)
    """
    if not 2 <= q <= 64:
        raise ValueError("q must be in 2..64")
    phi = cyclotomic(2 * q)
    m = (len(phi) - 1) // 2
    if len(phi) - 1 != 2 * m:
        raise RuntimeError("Phi_2q must have even degree for q >= 2")
    rem = list(phi) + [0] * (2 * m + 1 - len(phi))
    out = [0] * (m + 1)
    # Clear top coefficients downwards: z^{m-j} (z^2+1)^j has leading term z^{m+j}.
    for j in range(m, -1, -1):
        c = rem[m + j]
        out[j] = c
        if c:
            for i in range(j + 1):
                rem[m - j + 2 * i] -= c * math.comb(j, i)
    if any(rem):
        raise RuntimeError("palindromic factorization must be exact")
    if out[m] != 1:
        raise RuntimeError("minimal polynomial must be monic")
    return tuple(out)


class CosRing:
    """The ring Z[lam], lam = 2cos(pi/q), as Z[x] mod the minimal polynomial.

    Elements are int tuples of length deg(Psi_q), low degree first.
    All operations reduce exactly; equality of elements is tuple equality.

    >>> R = CosRing(5)            # Z[golden ratio], lam^2 = lam + 1
    >>> R.mul(R.lam, R.lam)
    (1, 1)
    >>> R.add(R.lam, R.one)
    (1, 1)
    """

    __slots__ = ("q", "modulus", "deg", "zero", "one", "lam")

    def __init__(self, q: int):
        self.q = q
        self.modulus = min_poly_2cos_pi_over(q)
        self.deg = len(self.modulus) - 1
        self.zero = (0,) * self.deg
        self.one = self.from_int(1)
        self.lam = self.reduce([0, 1])

    def from_int(self, c: int) -> tuple[int, ...]:
        return (c,) + (0,) * (self.deg - 1)

    def reduce(self, coeffs: list[int]) -> tuple[int, ...]:
        """Reduce an arbitrary integer polynomial mod Psi_q (monic)."""
        rem = list(coeffs)
        d = self.deg
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c:
                rem[k] = 0
                for i in range(d):
                    rem[k - d + i] -= c * self.modulus[i]
        rem = rem[:d] + [0] * (d - len(rem))
        return tuple(rem)

    def add(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(u, v))

    def neg(self, u: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(-a for a in u)

    def mul(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        if self.deg == 1:
            return self.reduce([u[0] * v[0]])
        out = [0] * (2 * self.deg - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    out[i + j] += a * b
        return self.reduce(out)


AlgInt = tuple[int, ...]
Mat2 = tuple[AlgInt, AlgInt, AlgInt, AlgInt]  # row-major: (m00, m01, m10, m11)


def mat_identity(ring: CosRing) -> Mat2:
    return (ring.one, ring.zero, ring.zero, ring.one)


def mat_mul(ring: CosRing, x: Mat2, y: Mat2) -> Mat2:
    mul, add = ring.mul, ring.add
    return (
        add(mul(x[0], y[0]), mul(x[1], y[2])),
        add(mul(x[0], y[1]), mul(x[1], y[3])),
        add(mul(x[2], y[0]), mul(x[3], y[2])),
        add(mul(x[2], y[1]), mul(x[3], y[3])),
    )


def mat_pow(ring: CosRing, x: Mat2, e: int) -> Mat2:
    """x^e for e >= 0, by repeated squaring."""
    if e < 0:
        raise ValueError("negative power: pass the inverse matrix instead")
    acc = mat_identity(ring)
    base = x
    while e:
        if e & 1:
            acc = mat_mul(ring, acc, base)
        base = mat_mul(ring, base, base)
        e >>= 1
    return acc


def mat_neg(ring: CosRing, x: Mat2) -> Mat2:
    return (ring.neg(x[0]), ring.neg(x[1]), ring.neg(x[2]), ring.neg(x[3]))

