"""Independent check of sign verdicts, written without the package.

A witness is accepted when it has the verdict's shape (empty for
identity, all exponents positive or all negative otherwise) and is the
same group element as the input.  Equality in G_n, n >= 2, is tested
through the Hecke-group representation

    a -> [[lam, -1], [1, 0]],    b -> [[1, lam], [0, 1]],   lam = 2cos(pi/q)

evaluated modulo two primes p = 1 (mod 2q), where lam becomes z + 1/z
for a primitive 2q-th root of unity z in F_p, together with the exact
abelianized coordinate phi (phi(a) = 2/d, phi(b) = -(n-1)/d,
d = gcd(n-1, 2)).  u = v in G_n iff rho(u) = +-rho(v) and phi(u) =
phi(v); the reduction mod p keeps the "only if" exactly and makes a
false "if" need p to divide a nonzero algebraic integer, for two fixed
61-bit primes at once.  n = 1 uses the Klein-bottle normal form a^t b^s.

Words here are lists of (gen, exp) pairs, gen 0 = a and 1 = b.
"""

from __future__ import annotations

import functools
import math

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(m: int) -> set[int]:
    out, f = set(), 2
    while f * f <= m:
        while m % f == 0:
            out.add(f)
            m //= f
        f += 1
    if m > 1:
        out.add(m)
    return out


@functools.lru_cache(maxsize=None)
def fields(q: int) -> tuple[tuple[int, int], ...]:
    """Two (p, lam mod p) pairs with p = 1 (mod 2q) prime, near 2^61."""
    m = 2 * q
    k = (1 << 61) // m
    found = []
    while len(found) < 2:
        p = k * m + 1
        k -= 1
        if not _is_prime(p):
            continue
        for g in range(2, 200):
            z = pow(g, (p - 1) // m, p)
            if all(pow(z, m // r, p) != 1 for r in _prime_factors(m)):
                found.append((p, (z + pow(z, -1, p)) % p))
                break
    return tuple(found)


def _mat_mul(x, y, p):
    return (
        (x[0] * y[0] + x[1] * y[2]) % p,
        (x[0] * y[1] + x[1] * y[3]) % p,
        (x[2] * y[0] + x[3] * y[2]) % p,
        (x[2] * y[1] + x[3] * y[3]) % p,
    )


def _mat_pow(x, e, p):
    acc = (1, 0, 0, 1)
    while e:
        if e & 1:
            acc = _mat_mul(acc, x, p)
        x = _mat_mul(x, x, p)
        e >>= 1
    return acc


def rho_mod(word, q: int, p: int, lam: int):
    a_pos, a_neg = (lam, p - 1, 1, 0), (0, 1, p - 1, lam)
    acc = (1, 0, 0, 1)
    for gen, exp in word:
        if gen == 1:  # b^e is unipotent: [[1, e lam], [0, 1]]
            m = (1, exp * lam % p, 0, 1)
        else:  # a^(2q) = I, so the exponent only matters mod 2q
            e = exp % (2 * q)
            m = _mat_pow(a_pos, e, p) if e <= q else _mat_pow(a_neg, 2 * q - e, p)
        acc = _mat_mul(acc, m, p)
    return acc


def _phi(word, n: int) -> int:
    d = math.gcd(n - 1, 2)
    phi_a, phi_b = 2 // d, -(n - 1) // d
    return sum(exp * (phi_a if gen == 0 else phi_b) for gen, exp in word)


def _klein_pair(word) -> tuple[int, int]:
    t = s = 0
    for gen, exp in word:
        if gen == 0:
            t += exp
            if exp % 2:
                s = -s
        else:
            s += exp
    return t, s


def same_element(u, v, n: int) -> bool:
    """Do the words u and v name the same element of G_n?"""
    if n == 1:
        return _klein_pair(u) == _klein_pair(v)
    if _phi(u, n) != _phi(v, n):
        return False
    q = n + 1
    for p, lam in fields(q):
        x, y = rho_mod(u, q, p, lam), rho_mod(v, q, p, lam)
        if x != y and x != tuple((-c) % p for c in y):
            return False
    return True


def parse(text: str) -> list[tuple[int, int]]:
    """Syllables of "a^2 b^-1" text; "1" is the empty word."""
    if text.strip() == "1":
        return []
    out = []
    for token in text.split():
        name, _, exp = token.partition("^")
        out.append(({"a": 0, "b": 1}[name], int(exp) if exp else 1))
    return out


def sign_error(word, verdict: str, witness, n: int) -> str | None:
    """None when (verdict, witness) is a correct answer for word in G_n."""
    exps = [exp for _, exp in witness]
    if verdict == "identity":
        shape_ok = not exps
    elif verdict == "positive":
        shape_ok = bool(exps) and all(e > 0 for e in exps)
    elif verdict == "negative":
        shape_ok = bool(exps) and all(e < 0 for e in exps)
    else:
        return f"unknown verdict {verdict!r}"
    if not shape_ok:
        return f"witness does not have the shape of a {verdict} verdict"
    if not same_element(word, witness, n):
        return "witness is not the same element as the input"
    return None
