"""Independent equality oracle: 2x2 matrices over Z[2cos(pi/q)] plus phi.

G_n = < a, b | b a^n b = a > maps onto the Hecke group of the q-gon
(q = n+1) via

    rho(a) = [[lam, -1], [1, 0]],    rho(b) = [[1, lam], [0, 1]],

with lam = 2cos(pi/q).  rho is an honest homomorphism into SL2: the
relator goes exactly to the identity, rho(b a^n b a^-1) = I, and rho(a)
is a rotation with rho(a)^q = -I, so the central element delta = a^q
has rho(delta) = -I.  Up to sign rho kills exactly <delta> (n >= 2), so
rho itself sees delta only mod 2.  Pairing rho with the abelianized
coordinate phi (which separates central powers: phi(delta) = q * phi(a)
!= 0) yields an exact identity test:

    w = 1 in G_n   <=>   phi(w) == 0  and  rho(w) == I     (n >= 2),

and two words are the same element exactly when their (rho, phi) agree.

For n = 1 the matrix side degenerates: q = 2 gives lam = 0, so rho(b)
is the identity matrix, and phi(b) = 0 too — the pair is blind to b.
But G_1 is the Klein bottle group (b a b = a), whose elements normalize
uniquely to a^t b^s with multiplication twisted by (t, s) * a^e =
(t + e, (-1)^e s).  The closed form is exact, so for n = 1 the identity
test and b-power extraction use it directly; rho and phi are still
defined (and still satisfy their trace/relator invariants, degenerately).

rho is evaluated without general 2x2 products: rho(b)^k is a shear,
which adds k*lam times the first column to the second, and rho(a) is a
rotation with rho(a)^q = -I, so a^e is a sign times min(s, q - s) steps
of rho(a) or rho(a)^-1, s = e mod q.  Multiplying by lam is a shift
plus one reduction row, O(deg) for deg = deg(lam), so a b-syllable
costs O(deg) and an a-syllable O(min(e mod q, q - e mod q) * deg).

Everything here is computed with integer arithmetic only.
"""

from __future__ import annotations

from .algebra import Mat2, mat_identity, mat_neg
from .context import GroupContext, ring_of
from .words import GEN_A, GEN_B, Word


def rho(word: Word, ctx: GroupContext) -> Mat2:
    """The matrix image of a word (an honest SL2 product, det = 1).

    The entries (x0, x1, x2, x3) of [[x0, x1], [x2, x3]] start at the
    identity and are right-multiplied one syllable at a time:

      b^k   a shear: x1 += k lam x0 and x3 += k lam x2.
      a^e   a rotation: rho(a)^q = -I, so e mod 2q gives a sign and
            s = e mod q; then min(s, q - s) steps of rho(a) or of
            rho(a)^-1 = [[0, 1], [-1, lam]] (a^s = -a^-(q-s)).

    Each update is one CosRing.mul_lam_add per row.  The sign is a
    scalar, so it is carried as a flag and applied once at the end.
    """
    ring = ring_of(ctx)
    q = ctx.q
    lam_add, neg = ring.mul_lam_add, ring.neg
    x0, x1, x2, x3 = mat_identity(ring)
    flip = False
    for gen, exp in word:
        if gen == GEN_B:
            x1 = lam_add(x0, x1, exp)
            x3 = lam_add(x2, x3, exp)
            continue
        s = exp % (2 * q)
        if s >= q:
            flip, s = not flip, s - q
        if 2 * s <= q:
            for _ in range(s):
                x0, x1 = lam_add(x0, x1), neg(x0)
                x2, x3 = lam_add(x2, x3), neg(x2)
        else:
            flip = not flip
            for _ in range(q - s):
                x0, x1 = neg(x1), lam_add(x1, x0)
                x2, x3 = neg(x3), lam_add(x3, x2)
    acc = (x0, x1, x2, x3)
    return mat_neg(ring, acc) if flip else acc


def phi(word: Word, ctx: GroupContext) -> int:
    """The torsion-free abelianized coordinate of a word."""
    total = 0
    for gen, exp in word:
        total += exp * (ctx.phi_a if gen == GEN_A else ctx.phi_b)
    return total


def klein_pair(word: Word) -> tuple[int, int]:
    """Normal coordinates (t, s) of a word in the Klein bottle group G_1.

    Every element of < a, b | b a b = a > equals a^t b^s for unique
    integers (t, s); right multiplication acts by

        (t, s) * a^e = (t + e, (-1)^e s),      (t, s) * b^e = (t, s + e).

    >>> klein_pair(((GEN_B, 1), (GEN_A, 1), (GEN_B, 1)))   # b a b = a
    (1, 0)
    """
    t, s = 0, 0
    for gen, exp in word:
        if gen == GEN_A:
            t += exp
            if exp % 2:
                s = -s
        else:
            s += exp
    return t, s


def klein_sign(word: Word) -> int:
    """Sign of a word in G_1: +1, -1 or 0, per the one-signed cone.

    The positive cone of G_1 generated by {a, b} is
    {a^t b^s : t > 0} ∪ {b^s : s > 0}; the identity is (0, 0).
    """
    t, s = klein_pair(word)
    if t != 0:
        return 1 if t > 0 else -1
    if s != 0:
        return 1 if s > 0 else -1
    return 0


def oracle_is_identity(word: Word, ctx: GroupContext) -> bool:
    """Exact word-problem test, independent of all rewriting code.

    n >= 2: phi = 0, then rho(word) == I (rho runs only when phi = 0).
    n == 1: Klein bottle closed form (the matrix pair is blind to b there).
    """
    if ctx.n == 1:
        return klein_pair(word) == (0, 0)
    return phi(word, ctx) == 0 and rho(word, ctx) == mat_identity(ring_of(ctx))


def oracle_report(word: Word, ctx: GroupContext) -> tuple[bool, bool, int]:
    """(identity, rho_is_identity, phi) of a word, folding rho once.

    identity is oracle_is_identity's answer; rho_is_identity says
    rho(word) = +-I, the projective identity, which for n >= 2 also
    holds on every central power delta^j.
    """
    ring, m, value = ring_of(ctx), rho(word, ctx), phi(word, ctx)
    ident = mat_identity(ring)
    identity = klein_pair(word) == (0, 0) if ctx.n == 1 else (value == 0 and m == ident)
    return identity, m in (ident, mat_neg(ring, ident)), value


def oracle_equal(u: Word, v: Word, ctx: GroupContext) -> bool:
    """True when u and v are the same group element."""
    from .words import concat, invert

    return oracle_is_identity(concat(invert(u), v), ctx)


def b_power_of(word: Word, ctx: GroupContext) -> int | None:
    """The integer k with word = b^k in G_n, or None if there is none.

    For n >= 2, phi(b) != 0, so k = phi(word) / phi(b) is the only
    candidate; word = b^k then holds exactly when rho(word) is the shear
    rho(b)^k = [[1, k lam], [0, 1]], since (rho, phi) is faithful.  rho
    runs only when phi(b) divides phi(word).

    >>> from heckeord.context import group_context
    >>> b_power_of(((GEN_B, -3),), group_context(2))
    -3
    >>> b_power_of(((GEN_A, 1),), group_context(2)) is None
    True
    """
    if ctx.n == 1:
        t, s = klein_pair(word)
        return s if t == 0 else None
    k, rest = divmod(phi(word, ctx), ctx.phi_b)
    if rest:
        return None
    ring = ring_of(ctx)
    shear = (ring.one, ring.scal(k, ring.lam), ring.zero, ring.one)
    return k if rho(word, ctx) == shear else None


def element_key(word: Word, ctx: GroupContext) -> tuple:
    """A perfect invariant of the group element represented by word.

    n >= 2: the matrix plus phi (faithful, since rho is a homomorphism
    whose kernel lies in <delta> and phi separates central powers).
    n == 1: the Klein pair.
    """
    if ctx.n == 1:
        return klein_pair(word)
    return (rho(word, ctx), phi(word, ctx))
