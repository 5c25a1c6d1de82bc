"""Per-group data for G_n = < a, b | b a^n b = a >.

Each n >= 1 gives a one-relator group G_n with infinite cyclic center
generated by delta = a^(n+1).  The quotient G_n / <delta> is the Hecke
triangle group of the (n+1)-gon.  The 2x2 matrices over
Z[2cos(pi/(n+1))] in `oracle` represent G_n itself in SL2, with
rho(delta) = -I, so they see delta only mod 2.

The abelianization of G_n is Z^2 / (a^(n-1) b^2): a surjection
phi: G_n -> Z picks out the quotient by the torsion part, with
phi(a) = 2/d and phi(b) = -(n-1)/d for d = gcd(n-1, 2).  phi(delta) =
(n+1) phi(a) != 0, so phi separates all central powers delta^j.

Every constant here is a function of n: GroupContext(n) works out q,
the minimal polynomial and phi itself.
"""

from __future__ import annotations

import functools
import math

from .algebra import CosRing, min_poly_2cos_pi_over


class GroupContext:
    """Everything the decision procedures need to know about one G_n.

    Built from n alone, 1 <= n <= 63: q, min_poly, phi_a and phi_b are
    worked out from n, so a context whose fields disagree cannot be
    built.  Immutable, equal and hashed by n, with the repr
    GroupContext(n=..., q=..., ...).  A slotted class, not a named
    tuple: ctx.n and ctx.q are read on every stack-pass step and
    verdict, and a slot reads in less than half the time of a named
    tuple's field.  A pickled copy, as in a suite's worker process, is
    rebuilt from n (__reduce__).
    """

    __slots__ = ("n", "q", "min_poly", "phi_a", "phi_b")

    n: int  # the defining exponent: b a^n b = a
    q: int  # n + 1: delta = a^q is central; Hecke parameter
    min_poly: tuple[int, ...]  # minimal polynomial of 2cos(pi/q)
    phi_a: int  # phi(a) for the torsion-free abelianized coordinate
    phi_b: int  # phi(b)

    def __init__(self, n: int):
        if not 1 <= n <= 63:
            raise ValueError("n must be in 1..63")
        d = math.gcd(n - 1, 2)
        fields = (n, n + 1, min_poly_2cos_pi_over(n + 1), 2 // d, -(n - 1) // d)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n
        return NotImplemented

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return f"GroupContext({', '.join(f'{name}={value!r}' for name, value in self._asdict().items())})"

    def __reduce__(self):
        return GroupContext, (self.n,)


def group_context(n: int) -> GroupContext:
    """Build the context for G_n.  Supported range: 1 <= n <= 63.

    >>> ctx = group_context(2)
    >>> ctx.q, ctx.min_poly, ctx.phi_a, ctx.phi_b
    (3, (-1, 1), 2, -1)
    >>> group_context(5).phi_b
    -2
    """
    return GroupContext(n)


@functools.lru_cache(maxsize=None)
def ring_of(ctx: GroupContext) -> CosRing:
    """The coefficient ring Z[2cos(pi/q)] for ctx, cached per context."""
    return CosRing(ctx.q)
