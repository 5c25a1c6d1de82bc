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
lam.  The fold keeps the second column negated: with y = -x1 a row
(x0, x1) of rho(a) steps as (x0, y) -> (lam x0 - y, x0) and of rho(a)^-1
as (x0, y) -> (y, lam y - x0), so no step negates an entry.  Each entry
sum c_i lam^i is packed into ints sum c_i 2^(B i) with balanced digits
(Kronecker substitution), so lam * u is one shift, one top-digit
extraction and one product with the packed modulus: a handful of C-level
big-int operations on deg * B bits instead of deg Python-level ones.

How an entry is packed depends on the modulus M, the minimal polynomial
of lam (deg = deg M):

  odd q     one int per entry, the deg digits c_0, c_1, ...; lam u =
            (u << B) - t M with t the top digit.
  even q    (q >= 4) M is even, M(x) = N(x^2), so half of M's digits
            are zero.  An entry u = E(lam^2) + lam O(lam^2) is two
            ints: E packs its even digits (c_0, c_2, ...) and O its odd
            ones, deg/2 digits each (Harvey's multipoint Kronecker
            substitution).  lam u = lam^2 O(lam^2) + lam E(lam^2), so
            E moves into O unchanged and the new E is (O << B) - t N
            with t the top digit of O: one product half as long.

When an int would hold one digit it is that digit: at deg = 1 (n = 1,
2) lam is an integer and an entry a plain int; at deg = 2 with even q
(n = 3, 5) E and O are plain ints and lam^2 = -N(0).

The digit width B comes from a proof, not a guess.  The digits are the
same numbers however they are packed.  Each syllable's growth factor
bounds them; before that bound could reach 2^(B - 2), a guard-bit
certificate (two big-int operations per packed int) proves them at most
2^(B - g), with g = 64 guard bits (up to 76 for n >= 57, so that every
rotation fits under one certificate).  Only a failed certificate
unpacks the ints and repacks them wider.

The oracle's state of a word, (phi, the fold's state) or at n = 1 the
Klein pair, is made and read only here: oracle_state hands it out, and
oracle_is_identity and b_power_of resume from it.  _is_shear compares a
fold's state with sign times rho(b)^k = [[1, k lam], [0, 1]], whose
packed ints are the same at every width but for k lam, and _coefficients
unpacks it for rho and element_key, both undoing the negated column.
A b-syllable costs O(1) and an a-syllable O(min(e mod q, q - e mod q))
big-int operations, each linear in the packed length except the product
of the top digit with the packed modulus, which costs B times that
length: deg * B^2 at odd q and half of it at even q, still most of a
step at n = 63.

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


@functools.lru_cache(maxsize=None)
def _plan(q: int) -> tuple:
    """Per-q constants of the fold: (deg, modulus, shear bits, rotation
    bits, guard g, digits per packed int).

    The modulus is even (every even q >= 4) exactly when its odd-place
    coefficients vanish; then an entry is packed as two ints of deg / 2
    digits, otherwise as one of deg digits.

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
    guard = max(_GUARD, rotation_bits[-1] + 3)
    digits = deg // 2 if not any(modulus[1::2]) else deg
    return deg, modulus, shear_bits, tuple(rotation_bits), guard, digits


@functools.lru_cache(maxsize=256)
def _layout(q: int, width: int) -> tuple[int, int, int, int, int, int]:
    """Packed constants at digit width B: (M, S, 2^(S-1), K, G, 2^(B d)).

    d is the number of digits per packed int (_plan), M the monic
    modulus packed, or N with M(x) = N(x^2) when entries are halves,
    S = B (d - 1) the place of the top digit, K has 2^(B - g) in every
    digit and G the top g - 1 bits of every digit.
    """
    deg, modulus, _, _, guard, digits = _plan(q)
    reducer = modulus if digits == deg else modulus[::2]
    place = width * (digits - 1)
    if width <= guard:  # too narrow for a certificate: 0 <= y < 0 fails
        return _pack(reducer, width), place, 1 << (place - 1), 0, 0, 0
    ones = sum(1 << (width * i) for i in range(digits))
    return (
        _pack(reducer, width),
        place,
        1 << (place - 1),
        ones << (width - guard),
        ones * (((1 << (guard - 1)) - 1) << (width - guard + 1)),
        1 << (width * digits),
    )


def _pack(coeffs, width: int) -> int:
    return sum(c << (width * i) for i, c in enumerate(coeffs))


def _unpack(x: int, width: int, digits: int) -> tuple[int, ...]:
    """The balanced digits of x, each of absolute value < 2^(width - 1)."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    out = []
    for _ in range(digits):
        c = ((x + half) & mask) - half
        out.append(c)
        x = (x - c) >> width
    return tuple(out)


def _fits(entries, certificate) -> bool:
    """The guard-bit certificate: every digit c of every packed int has
    -2^(B - g) <= c < 2^(B - g).

    Y = x + K must lie in [0, 2^(B d)) and miss G.  Then Y's unsigned
    base-2^B digits y_i are below 2^(B - g + 1), so x = sum (y_i - 2^(B - g))
    2^(B i) with balanced digits in [-2^(B - g), 2^(B - g)); as x's own
    digits are below 2^(B - 2) and balanced digits are unique, those are
    they.  Conversely such digits give exactly such y_i.

    One test covers every Y at once: ints are infinite two's complement,
    so the OR z of the Y is negative iff one of them is, and for
    nonnegative Y, z < 2^(B d) iff each is and z misses G iff each does.
    """
    offset, guard, top = certificate
    z = 0
    for x in entries:
        z |= x + offset
    return 0 <= z < top and not z & guard


def _widen(entries, digits: int, width: int, grow: int, guard: int) -> tuple[tuple[int, ...], int, int]:
    """Unpack, measure and repack the packed ints with room for grow more bits.

    Returns (entries, width, bits) with every digit below 2^bits.
    """
    unpacked = [_unpack(x, width, digits) for x in entries]
    bits = max(c.bit_length() for entry in unpacked for c in entry)
    width = -(-(bits + grow + guard + _SLACK) // 16) * 16
    return tuple(_pack(entry, width) for entry in unpacked), width, bits


def _room(entries, q: int, width: int, grow: int) -> tuple[tuple[int, ...], int, int]:
    """(entries, width, bits) with room for a syllable that grows the
    digits by up to grow bits: certified at this width when one
    certificate covers the syllable and passes, otherwise widened."""
    _, _, _, _, guard, digits = _plan(q)
    if grow <= guard - 3 and _fits(entries, _layout(q, width)[3:]):
        return entries, width, width - guard + 1
    return _widen(entries, digits, width, grow, guard)


def _fold(word: Word, ctx: GroupContext, start: tuple | None = None) -> tuple:
    """The fold's state after word, resumed from start (the identity when
    None; start itself when word is empty).

    The state is (entries, flip, width, bits): rho of the letters folded
    so far is (-1)^flip times [[x0, -y1], [x2, -y3]] for the packed
    entries (x0, y1, x2, y3) at digit width B = width, and 2^bits bounds
    their digits.  The second column is stored negated, so that no step
    below negates an entry.  Folding v from the state of u gives the
    state of u v, so rho(w x) costs the letter x once rho(w) is known;
    _is_shear and _coefficients read rho off a state.

    At even q >= 4 the entries are the eight halves (E0, O0, F1, P1, E2,
    O2, F3, P3): E of the even and O of the odd digits of x0 and x2, F
    and P those of y1 and y3.  A packed int of one digit is that digit
    (deg 1, or deg 2 at even q): width and bits are then 0.  Otherwise
    the digits are packed balanced at 2^B: lam u = (u << B) - t M with
    t = (u + 2^(S-1)) >> S the top digit of u, or on halves lam (E, O) =
    ((O << B) - t N, E) with t the top digit of O; either is exact while
    every digit stays below 2^(B - 2).  A bound 2^bits on the digits
    grows by each syllable's factor (_plan); before it could pass
    2^(B - 2) the packed ints are certified (_fits) to have digits
    <= 2^(B - g), and only when that fails, or one syllable alone could
    outgrow the guard, are they unpacked and widened.

    The entries start at the identity, (1, -1) on the diagonal, and are
    right-multiplied one syllable at a time, each row (x, y) alike:

      b^k   a shear: y -= k lam x.
      a^e   a rotation: rho(a)^q = -I, so e mod 2q gives a sign and
            s = e mod q; then min(s, q - s) steps of rho(a),
            (x, y) -> (lam x - y, x), or of rho(a)^-1 = [[0, 1], [-1, lam]],
            (x, y) -> (y, lam y - x)  (a^s = -a^-(q-s)).

    The sign is a scalar, so it is carried as a flag and applied when rho
    is read.
    """
    if start is not None and not word:
        return start
    q = ctx.q
    turn = 2 * q
    deg, modulus, shear_bits, rotation_bits, _, digits = _plan(q)
    halves = digits < deg
    if start is None:
        identity = (1, 0, 0, 0, 0, 0, -1, 0) if halves else (1, 0, 0, -1)
        start = (identity, False, 0, 0) if digits == 1 else (identity, False, _START_WIDTH, 1)
    entries, flip, width, bits = start
    if deg == 1:  # lam is an int
        lam = -modulus[0]
        x0, y1, x2, y3 = entries
        for gen, exp in word:
            if gen == GEN_B:
                k = exp * lam
                y1 -= k * x0
                y3 -= k * x2
                continue
            s = exp % turn
            if s >= q:
                flip, s = not flip, s - q
            if 2 * s <= q:
                for _ in range(s):
                    x0, y1 = lam * x0 - y1, x0
                    x2, y3 = lam * x2 - y3, x2
            else:
                flip = not flip
                for _ in range(q - s):
                    x0, y1 = y1, lam * y1 - x0
                    x2, y3 = y3, lam * y3 - x2
        return (x0, y1, x2, y3), flip, 0, 0
    if digits == 1:  # halves of one digit each: lam (e, o) = (c o, e), c = lam^2
        c = -modulus[0]
        e0, o0, f1, p1, e2, o2, f3, p3 = entries
        for gen, exp in word:
            if gen == GEN_B:
                k = exp * c
                f1, p1 = f1 - k * o0, p1 - exp * e0
                f3, p3 = f3 - k * o2, p3 - exp * e2
                continue
            s = exp % turn
            if s >= q:
                flip, s = not flip, s - q
            if 2 * s <= q:
                for _ in range(s):
                    e0, o0, f1, p1 = c * o0 - f1, e0 - p1, e0, o0
                    e2, o2, f3, p3 = c * o2 - f3, e2 - p3, e2, o2
            else:
                flip = not flip
                for _ in range(q - s):
                    e0, o0, f1, p1 = f1, p1, c * p1 - e0, f1 - o0
                    e2, o2, f3, p3 = f3, p3, c * p3 - e2, f3 - o2
        return (e0, o0, f1, p1, e2, o2, f3, p3), flip, 0, 0
    mod, place, half = _layout(q, width)[:3]
    if halves:
        e0, o0, f1, p1, e2, o2, f3, p3 = entries
        for gen, exp in word:
            if gen == GEN_B:
                grow = exp.bit_length() + shear_bits
            else:
                s = exp % turn
                if s >= q:
                    flip, s = not flip, s - q
                grow = rotation_bits[s if 2 * s <= q else q - s]
            if bits + grow > width - 2:
                (e0, o0, f1, p1, e2, o2, f3, p3), width, bits = _room((e0, o0, f1, p1, e2, o2, f3, p3), q, width, grow)
                mod, place, half = _layout(q, width)[:3]
            bits += grow
            if gen == GEN_B:
                f1, p1 = f1 - exp * ((o0 << width) - ((o0 + half) >> place) * mod), p1 - exp * e0
                f3, p3 = f3 - exp * ((o2 << width) - ((o2 + half) >> place) * mod), p3 - exp * e2
            elif 2 * s <= q:
                for _ in range(s):
                    e0, o0, f1, p1 = (o0 << width) - ((o0 + half) >> place) * mod - f1, e0 - p1, e0, o0
                    e2, o2, f3, p3 = (o2 << width) - ((o2 + half) >> place) * mod - f3, e2 - p3, e2, o2
            else:
                flip = not flip
                for _ in range(q - s):
                    e0, o0, f1, p1 = f1, p1, (p1 << width) - ((p1 + half) >> place) * mod - e0, f1 - o0
                    e2, o2, f3, p3 = f3, p3, (p3 << width) - ((p3 + half) >> place) * mod - e2, f3 - o2
        return (e0, o0, f1, p1, e2, o2, f3, p3), flip, width, bits
    x0, y1, x2, y3 = entries
    for gen, exp in word:
        if gen == GEN_B:
            grow = exp.bit_length() + shear_bits
        else:
            s = exp % turn
            if s >= q:
                flip, s = not flip, s - q
            grow = rotation_bits[s if 2 * s <= q else q - s]
        if bits + grow > width - 2:
            (x0, y1, x2, y3), width, bits = _room((x0, y1, x2, y3), q, width, grow)
            mod, place, half = _layout(q, width)[:3]
        bits += grow
        if gen == GEN_B:
            y1 -= exp * ((x0 << width) - ((x0 + half) >> place) * mod)
            y3 -= exp * ((x2 << width) - ((x2 + half) >> place) * mod)
        elif 2 * s <= q:
            for _ in range(s):
                x0, y1 = (x0 << width) - ((x0 + half) >> place) * mod - y1, x0
                x2, y3 = (x2 << width) - ((x2 + half) >> place) * mod - y3, x2
        else:
            flip = not flip
            for _ in range(q - s):
                x0, y1 = y1, (y1 << width) - ((y1 + half) >> place) * mod - x0
                x2, y3 = y3, (y3 << width) - ((y3 + half) >> place) * mod - x2
    return (x0, y1, x2, y3), flip, width, bits


def _is_shear(state: tuple, ctx: GroupContext, k: int = 0, sign: int = 1) -> bool:
    """Whether rho of a _fold state is sign times rho(b)^k = [[1, k lam], [0, 1]],
    stored as (sign, -sign k lam, 0, -sign).

    Its packed ints are the same at every width but for k lam: k 2^B as
    one packed int, k * lam as a plain one, and k alone as the odd
    half of an entry.
    """
    entries, flip, width, _ = state
    if flip:
        sign = -sign
    if len(entries) == 8:
        return entries == (sign, 0, 0, -sign * k, 0, 0, -sign, 0)
    lam = 1 << width if width else -ctx.min_poly[0]
    return entries == (sign, -sign * k * lam, 0, -sign)


def _coefficients(state: tuple, ctx: GroupContext) -> Mat2:
    """rho of a _fold state as coefficient tuples in the power basis of lam."""
    entries, flip, width, _ = state
    # The second column is stored negated: entries 1 and 3, or halves 2, 3, 6 and 7.
    second = (0, 1, 0, 1) if len(entries) == 4 else (0, 0, 1, 1) * 2
    entries = [-x if flip ^ negated else x for x, negated in zip(entries, second)]
    deg = len(ctx.min_poly) - 1
    if len(entries) == 4:
        return tuple(_unpack(x, width, deg) if width else (x,) for x in entries)
    halves = [_unpack(x, width, deg // 2) if width else (x,) for x in entries]
    return tuple(tuple(c for pair in zip(even, odd) for c in pair) for even, odd in zip(halves[::2], halves[1::2]))


def rho(word: Word, ctx: GroupContext) -> Mat2:
    """The matrix image of a word (an honest SL2 product, det = 1): the
    packed fold, unpacked into coefficient tuples in the power basis of lam."""
    return _coefficients(_fold(word, ctx), ctx)


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


def oracle_state(word: Word, ctx: GroupContext, start: tuple | None = None) -> tuple:
    """The oracle's state of start · word, or of word when start is None.

    n >= 2: (phi, the fold's state); n == 1: the Klein pair.  The state
    of u resumed over v is the state of u v, so a walk that keeps one
    per word pays one letter for each child.  oracle_is_identity and
    b_power_of take it as their start.
    """
    if ctx.n == 1:
        return klein_pair(word, start or (0, 0))
    if start is None:
        return phi(word, ctx), _fold(word, ctx)
    return start[0] + phi(word, ctx), _fold(word, ctx, start[1])


def oracle_is_identity(word: Word, ctx: GroupContext, start: tuple | None = None) -> bool:
    """Exact word-problem test of start · word (an oracle_state; word
    alone when None), independent of all rewriting code.

    n >= 2: phi = 0, then rho == I (folded only when phi = 0); the
    packed identity is the same at every width, so nothing is unpacked.
    n == 1: Klein bottle closed form (the matrix pair is blind to b there).
    """
    if ctx.n == 1:
        pair = start or (0, 0)
        return (klein_pair(word, pair) if word else pair) == (0, 0)
    value, fold = start or (0, None)
    if word:
        value += phi(word, ctx)
    if value:
        return False
    return _is_shear(_fold(word, ctx, fold) if start else _fold(word, ctx), ctx)


def oracle_report(word: Word, ctx: GroupContext) -> tuple[bool, bool, int]:
    """(identity, rho_projectively_trivial, phi) of a word, folding rho once.

    identity is oracle_is_identity's answer; rho_projectively_trivial says
    rho(word) = +-I, which for n >= 2 also holds on every central power
    delta^j.
    """
    state, value = _fold(word, ctx), phi(word, ctx)
    one = _is_shear(state, ctx)
    identity = klein_pair(word) == (0, 0) if ctx.n == 1 else (value == 0 and one)
    return identity, one or _is_shear(state, ctx, sign=-1), value


def oracle_equal(u: Word, v: Word, ctx: GroupContext) -> bool:
    """True when u and v are the same group element."""
    from .words import concat, invert

    return oracle_is_identity(concat(invert(u), v), ctx)


def b_power_of(word: Word, ctx: GroupContext, start: tuple | None = None, word_phi: int | None = None) -> int | None:
    """The integer k with start · word = b^k in G_n (word alone when start
    is None; start an oracle_state), or None if there is none.  word_phi
    is phi(word) when the caller holds it, as a walk that reads the same
    word after every start does.

    For n >= 2, phi(b) != 0, so k = phi(word) / phi(b) is the only
    candidate (word standing for start · word throughout); word = b^k
    then holds exactly when rho(word) is the shear
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
        t, s = klein_pair(word, start or (0, 0))
        return s if t == 0 else None
    value, fold = start or (0, None)
    if word:
        value += phi(word, ctx) if word_phi is None else word_phi
    k, rest = divmod(value, ctx.phi_b)
    if rest:
        return None
    fold = _fold(word, ctx, fold) if start else _fold(word, ctx)
    return k if _is_shear(fold, ctx, k) else None


def element_key(word: Word, ctx: GroupContext) -> tuple:
    """A perfect invariant of the group element represented by word.

    n >= 2: the matrix plus phi (faithful, since rho is a homomorphism
    whose kernel lies in <delta> and phi separates central powers).
    n == 1: the Klein pair.
    """
    if ctx.n == 1:
        return klein_pair(word)
    return (rho(word, ctx), phi(word, ctx))
