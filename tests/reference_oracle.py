"""Test-only reference: rho as the fold over coefficient tuples.

This is the shear/rotation fold the package ran before its entries were
packed into one integer each: every entry is a tuple of deg ints in the
power basis of lam, and multiplying by lam is a shift of the tuple plus
one reduction row by the monic modulus.  It shares the syllable walk
with `oracle._fold` but none of the packing, the width bound or the
certificate, so the tests can demand identical matrices from the two.
It also keeps the guard-bit certificate as it tested one packed int at
a time, against which the tests check `oracle._fits`'s single test.
"""

from __future__ import annotations

from heckeord.algebra import Mat2, mat_identity, mat_neg
from heckeord.context import GroupContext, ring_of
from heckeord.words import GEN_B, Word


def mul_lam_add(modulus, u, v, k=1):
    """v + k*lam*u: lam*u moves every coefficient up one place, and the
    one that leaves the top, c, comes back as -c times the modulus."""
    top = k * u[-1]
    return tuple(c + k * s - top * m for c, s, m in zip(v, (0,) + u, modulus))


def tuple_rho(word: Word, ctx: GroupContext) -> Mat2:
    """rho(word) by the tuple fold: b^k a shear, a^e a sign and
    min(s, q - s) rotation steps with s = e mod q."""
    ring = ring_of(ctx)
    q, modulus = ctx.q, ring.modulus
    neg = ring.neg
    x0, x1, x2, x3 = mat_identity(ring)
    flip = False
    for gen, exp in word:
        if gen == GEN_B:
            x1 = mul_lam_add(modulus, x0, x1, exp)
            x3 = mul_lam_add(modulus, x2, x3, exp)
            continue
        s = exp % (2 * q)
        if s >= q:
            flip, s = not flip, s - q
        if 2 * s <= q:
            for _ in range(s):
                x0, x1 = mul_lam_add(modulus, x0, x1), neg(x0)
                x2, x3 = mul_lam_add(modulus, x2, x3), neg(x2)
        else:
            flip = not flip
            for _ in range(q - s):
                x0, x1 = neg(x1), mul_lam_add(modulus, x1, x0)
                x2, x3 = neg(x3), mul_lam_add(modulus, x3, x2)
    acc = (x0, x1, x2, x3)
    return mat_neg(ring, acc) if flip else acc


def reference_fits(entries, certificate) -> bool:
    """The guard-bit certificate, one packed int at a time: Y = x + K must
    lie in [0, 2^(B d)) and miss G for every entry x."""
    offset, guard, top = certificate
    for x in entries:
        y = x + offset
        if y < 0 or y >= top or y & guard:
            return False
    return True
