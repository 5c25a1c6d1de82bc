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
of rho(a) or rho(a)^-1, s = e mod q.  Each step multiplies an entry by
lam.  At deg = deg(lam) = 1 (n = 1, 2) the entries are plain ints.
Otherwise each entry sum c_i lam^i is packed into one int sum c_i 2^(B i)
with balanced digits (Kronecker substitution), so lam * u is one shift,
one top-digit extraction and one product with the packed modulus: a
handful of C-level big-int operations on deg * B bits instead of deg
Python-level ones.

The digit width B comes from a proof, not a guess.  Each syllable's
growth factor bounds the digits; before that bound could reach
2^(B - 2), a guard-bit certificate (two big-int operations per entry)
proves them at most 2^(B - g), with g = 64 guard bits (up to 76 for
n >= 57, so that every rotation fits under one certificate).  Only a
failed certificate unpacks the entries and repacks them wider.

The identity is (1, 0, 0, 1) and rho(b)^k is (1, k * 2^B, 0, 1) at
every width, so the identity test and b_power_of compare packed entries
as they are; rho and element_key unpack once, at the end.  A b-syllable
costs O(1) and an a-syllable O(min(e mod q, q - e mod q)) big-int
operations, each linear in deg * B except the product of the top digit
with the modulus, which costs deg * B^2 and is most of the time at
n = 63.

Everything here is computed with integer arithmetic only.
"""

from __future__ import annotations

import functools
import operator

from .algebra import Mat2, min_poly_2cos_pi_over
from .context import GroupContext
from .words import GEN_A, GEN_B, Word


# Digit widths, in bits.  A fresh fold starts at _START_WIDTH; any width
# >= 3 is exact (the identity's digits are below 2^(3 - 2)).  A passing
# certificate leaves g - 3 bits of proven headroom, where the guard g is
# _GUARD or, for q whose largest rotation can grow by more (q >= 58),
# enough for that rotation; a widening leaves _SLACK bits more than the
# syllable that asked for it needs.
_START_WIDTH = 96
_GUARD = 64
_SLACK = 32

_IDENTITY = (1, 0, 0, 1)  # packed the same at every width


@functools.lru_cache(maxsize=None)
def _plan(q: int) -> tuple:
    """Per-q constants of the fold: (deg, modulus, shear bits, rotation
    bits, guard g).

    A syllable multiplies a bound on the digits of every entry by a factor:
    1 + |k| (1 + max|m_i|) < 2^(k.bit_length() + shear bits) for b^k, and
    for j rotation steps the largest over i <= j of the row-sum norm of
    (x0, x1) -> (x0, x1) rho(a)^(+-i), whose bit length is rotation
    bits[j].  That norm is bounded through the triangle inequality: i
    steps give x0 U_i + x1 U_(i-1) (Chebyshev U_i(lam/2), one index lower
    for x1 and, backwards, in the other order), and |r u|_max <=
    |u|_max * sum_k |r_k| N(lam^k), where N(lam^k), the norm of
    multiplication by lam^k, is the largest over i of the sum over
    j < deg of |digit i of lam^(k + j)|.
    """
    modulus = min_poly_2cos_pi_over(q)
    deg = len(modulus) - 1
    shear_bits = (1 + max(map(abs, modulus))).bit_length()

    def times_lam(u):
        top = u[-1]
        if not top:
            return (0,) + u[:-1]
        return tuple(s - top * m for s, m in zip((0,) + u[:-1], modulus))

    powers = [(1,) + (0,) * (deg - 1)]
    for _ in range(2 * deg - 2):
        powers.append(times_lam(powers[-1]))
    sizes = [tuple(map(abs, p)) for p in powers]
    rows = [sum(col) for col in zip(*sizes[:deg])]
    norms_of_powers = [max(rows)]
    for k in range(1, deg):
        rows = [r - old + new for r, old, new in zip(rows, sizes[k - 1], sizes[k + deg - 1])]
        norms_of_powers.append(max(rows))
    prev, cur = (0,) * deg, powers[0]
    norms, factor, rotation_bits = [0, 1], 0, [0]
    for _ in range(q // 2):  # U_(i+1) = lam U_i - U_(i-1)
        prev, cur = cur, tuple(map(operator.sub, times_lam(cur), prev))
        norms.append(sum(map(operator.mul, map(abs, cur), norms_of_powers)))
        factor = max(factor, norms[-1] + norms[-2], norms[-2] + norms[-3])
        rotation_bits.append(factor.bit_length())
    return deg, modulus, shear_bits, tuple(rotation_bits), max(_GUARD, rotation_bits[-1] + 3)


@functools.lru_cache(maxsize=256)
def _layout(q: int, width: int) -> tuple[int, int, int, int, int, int]:
    """Packed constants at digit width B: (M, S, 2^(S-1), K, G, 2^(B deg)).

    M is the monic modulus, S = B (deg - 1) the place of the top digit,
    K has 2^(B - g) in every digit and G the top g - 1 bits of every digit.
    """
    deg, modulus, _, _, guard = _plan(q)
    place = width * (deg - 1)
    if width <= guard:  # too narrow for a certificate: 0 <= y < 0 fails
        return _pack(modulus, width), place, 1 << (place - 1), 0, 0, 0
    ones = sum(1 << (width * i) for i in range(deg))
    return (
        _pack(modulus, width),
        place,
        1 << (place - 1),
        ones << (width - guard),
        ones * (((1 << (guard - 1)) - 1) << (width - guard + 1)),
        1 << (width * deg),
    )


def _pack(coeffs, width: int) -> int:
    return sum(c << (width * i) for i, c in enumerate(coeffs))


def _unpack(x: int, width: int, deg: int) -> tuple[int, ...]:
    """The deg balanced digits of x, each of absolute value < 2^(width - 1)."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    out = []
    for _ in range(deg):
        c = ((x + half) & mask) - half
        out.append(c)
        x = (x - c) >> width
    return tuple(out)


def _fits(entries, certificate) -> bool:
    """The guard-bit certificate: every digit c of every entry has
    -2^(B - g) <= c < 2^(B - g).

    Y = x + K must lie in [0, 2^(B deg)) and miss G.  Then Y's unsigned
    base-2^B digits y_i are below 2^(B - g + 1), so x = sum (y_i - 2^(B - g))
    2^(B i) with balanced digits in [-2^(B - g), 2^(B - g)); as x's own
    digits are below 2^(B - 2) and balanced digits are unique, those are
    they.  Conversely such digits give exactly such y_i.
    """
    offset, guard, top = certificate
    for x in entries:
        y = x + offset
        if y < 0 or y >= top or y & guard:
            return False
    return True


def _widen(entries, deg: int, width: int, grow: int, guard: int) -> tuple[list[int], int, int]:
    """Unpack, measure and repack the entries with room for grow more bits.

    Returns (entries, width, bits) with every digit below 2^bits.
    """
    digits = [_unpack(x, width, deg) for x in entries]
    bits = max(c.bit_length() for entry in digits for c in entry)
    width = -(-(bits + grow + guard + _SLACK) // 16) * 16
    return [_pack(entry, width) for entry in digits], width, bits


def _fold(word: Word, ctx: GroupContext, start: tuple | None = None) -> tuple:
    """The fold's state after word, resumed from start (the identity when None).

    The state is (entries, flip, width, bits): rho of the letters folded
    so far is (-1)^flip times the packed entries at digit width B =
    width, and 2^bits bounds their digits.  Folding v from the state of
    u gives the state of u v, so rho(w x) costs the letter x once rho(w)
    is known; _matrix reads rho and lam off a state.

    At deg 1 the entries are plain ints, and width and bits are 0.  Otherwise an
    entry sum c_i lam^i is the int sum c_i 2^(B i) with balanced digits,
    lam is 2^B, and lam u = (u << B) - t M with t = (u + 2^(S-1)) >> S its
    top digit, which is exact while every digit stays below 2^(B - 2).
    A bound 2^bits on the digits grows by each syllable's factor (_plan);
    before it could pass 2^(B - 2) the entries are certified (_fits) to
    have digits <= 2^(B - g), and only when that fails, or one syllable
    alone could outgrow the guard, are they unpacked and widened.

    The entries (x0, x1, x2, x3) of [[x0, x1], [x2, x3]] start at the
    identity and are right-multiplied one syllable at a time:

      b^k   a shear: x1 += k lam x0 and x3 += k lam x2.
      a^e   a rotation: rho(a)^q = -I, so e mod 2q gives a sign and
            s = e mod q; then min(s, q - s) steps of rho(a) or of
            rho(a)^-1 = [[0, 1], [-1, lam]] (a^s = -a^-(q-s)).

    The sign is a scalar, so it is carried as a flag and applied by _matrix.
    """
    q = ctx.q
    deg, modulus, shear_bits, rotation_bits, guard = _plan(q)
    if start is None:
        start = (_IDENTITY, False, 0, 0) if deg == 1 else (_IDENTITY, False, _START_WIDTH, 1)
    (x0, x1, x2, x3), flip, width, bits = start
    if deg == 1:
        lam = -modulus[0]
        for gen, exp in word:
            if gen == GEN_B:
                k = exp * lam
                x1 += k * x0
                x3 += k * x2
                continue
            s = exp % (2 * q)
            if s >= q:
                flip, s = not flip, s - q
            if 2 * s <= q:
                for _ in range(s):
                    x0, x1 = lam * x0 + x1, -x0
                    x2, x3 = lam * x2 + x3, -x2
            else:
                flip = not flip
                for _ in range(q - s):
                    x0, x1 = -x1, lam * x1 + x0
                    x2, x3 = -x3, lam * x3 + x2
        return (x0, x1, x2, x3), flip, 0, 0
    mod, place, half, *certificate = _layout(q, width)
    for gen, exp in word:
        if gen == GEN_B:
            grow = exp.bit_length() + shear_bits
        else:
            s = exp % (2 * q)
            if s >= q:
                flip, s = not flip, s - q
            grow = rotation_bits[s if 2 * s <= q else q - s]
        if bits + grow > width - 2:
            if grow <= guard - 3 and _fits((x0, x1, x2, x3), certificate):
                bits = width - guard + 1
            else:
                (x0, x1, x2, x3), width, bits = _widen((x0, x1, x2, x3), deg, width, grow, guard)
                mod, place, half, *certificate = _layout(q, width)
        bits += grow
        if gen == GEN_B:
            x1 += exp * ((x0 << width) - ((x0 + half) >> place) * mod)
            x3 += exp * ((x2 << width) - ((x2 + half) >> place) * mod)
        elif 2 * s <= q:
            for _ in range(s):
                x0, x1 = x1 + (x0 << width) - ((x0 + half) >> place) * mod, -x0
                x2, x3 = x3 + (x2 << width) - ((x2 + half) >> place) * mod, -x2
        else:
            flip = not flip
            for _ in range(q - s):
                x0, x1 = -x1, x0 + (x1 << width) - ((x1 + half) >> place) * mod
                x2, x3 = -x3, x2 + (x3 << width) - ((x3 + half) >> place) * mod
    return (x0, x1, x2, x3), flip, width, bits


def _matrix(state: tuple, ctx: GroupContext) -> tuple[tuple[int, int, int, int], int]:
    """rho as packed entries, and lam packed at their width, from a _fold state.

    At deg 1 the entries are plain ints and lam is an int.
    """
    (x0, x1, x2, x3), flip, width, _ = state
    lam = 1 << width if width else -_plan(ctx.q)[1][0]
    return ((-x0, -x1, -x2, -x3) if flip else (x0, x1, x2, x3)), lam


def rho(word: Word, ctx: GroupContext) -> Mat2:
    """The matrix image of a word (an honest SL2 product, det = 1): the
    packed fold, unpacked into coefficient tuples in the power basis of lam."""
    m, lam = _matrix(_fold(word, ctx), ctx)
    deg = len(ctx.min_poly) - 1
    if deg == 1:
        return tuple((x,) for x in m)
    return tuple(_unpack(x, lam.bit_length() - 1, deg) for x in m)


def phi(word: Word, ctx: GroupContext) -> int:
    """The torsion-free abelianized coordinate of a word."""
    total = 0
    for gen, exp in word:
        total += exp * (ctx.phi_a if gen == GEN_A else ctx.phi_b)
    return total


def klein_pair(word: Word, start: tuple[int, int] = (0, 0)) -> tuple[int, int]:
    """Normal coordinates (t, s) of start times word in the Klein bottle group G_1.

    Every element of < a, b | b a b = a > equals a^t b^s for unique
    integers (t, s); right multiplication acts by

        (t, s) * a^e = (t + e, (-1)^e s),      (t, s) * b^e = (t, s + e).

    So the pair of u v is the pair of v folded from start = the pair of u.

    >>> klein_pair(((GEN_B, 1), (GEN_A, 1), (GEN_B, 1)))   # b a b = a
    (1, 0)
    """
    t, s = start
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

    n >= 2: phi = 0, then rho(word) == I (folded only when phi = 0); the
    packed identity is (1, 0, 0, 1) at every width, so nothing is unpacked.
    n == 1: Klein bottle closed form (the matrix pair is blind to b there).
    """
    if ctx.n == 1:
        return klein_pair(word) == (0, 0)
    return phi(word, ctx) == 0 and _matrix(_fold(word, ctx), ctx)[0] == _IDENTITY


def oracle_report(word: Word, ctx: GroupContext) -> tuple[bool, bool, int]:
    """(identity, rho_projectively_trivial, phi) of a word, folding rho once.

    identity is oracle_is_identity's answer; rho_projectively_trivial says
    rho(word) = +-I, which for n >= 2 also holds on every central power
    delta^j.
    """
    m, value = _matrix(_fold(word, ctx), ctx)[0], phi(word, ctx)
    identity = klein_pair(word) == (0, 0) if ctx.n == 1 else (value == 0 and m == _IDENTITY)
    return identity, m in (_IDENTITY, (-1, 0, 0, -1)), value


def oracle_equal(u: Word, v: Word, ctx: GroupContext) -> bool:
    """True when u and v are the same group element."""
    from .words import concat, invert

    return oracle_is_identity(concat(invert(u), v), ctx)


def b_power_of(word: Word, ctx: GroupContext) -> int | None:
    """The integer k with word = b^k in G_n, or None if there is none.

    For n >= 2, phi(b) != 0, so k = phi(word) / phi(b) is the only
    candidate; word = b^k then holds exactly when rho(word) is the shear
    rho(b)^k = [[1, k lam], [0, 1]], since (rho, phi) is faithful.  rho
    runs only when phi(b) divides phi(word), and its packed entries are
    compared with the packed shear as they are.

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
    m, lam = _matrix(_fold(word, ctx), ctx)
    return k if m == (1, k * lam, 0, 1) else None


def element_key(word: Word, ctx: GroupContext) -> tuple:
    """A perfect invariant of the group element represented by word.

    n >= 2: the matrix plus phi (faithful, since rho is a homomorphism
    whose kernel lies in <delta> and phi separates central powers).
    n == 1: the Klein pair.
    """
    if ctx.n == 1:
        return klein_pair(word)
    return (rho(word, ctx), phi(word, ctx))
