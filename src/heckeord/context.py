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
"""

from __future__ import annotations

import functools
import math

from .algebra import CosRing, min_poly_2cos_pi_over


class GroupContext:
    """Everything the decision procedures need to know about one G_n.

    Immutable, equal and hashed by its fields, with the repr
    GroupContext(n=..., q=..., ...).  A slotted class, not a named
    tuple: ctx.n and ctx.q are read on every stack-pass step and
    verdict, and a slot reads in less than half the time of a named
    tuple's field.  The checks run in __init__, so they are real code
    under python -O, and again when a pickled copy is rebuilt
    (__reduce__), as in a suite's worker process.
    """

    __slots__ = ("n", "q", "min_poly", "phi_a", "phi_b")

    n: int  # the defining exponent: b a^n b = a
    q: int  # n + 1: delta = a^q is central; Hecke parameter
    min_poly: tuple[int, ...]  # minimal polynomial of 2cos(pi/q)
    phi_a: int  # phi(a) for the torsion-free abelianized coordinate
    phi_b: int  # phi(b)

    def __init__(self, n: int, q: int, min_poly: tuple[int, ...], phi_a: int, phi_b: int):
        if q != n + 1:
            raise ValueError(f"q must be n + 1, got n = {n}, q = {q}")
        if n * phi_a + 2 * phi_b != phi_a:
            raise ValueError("phi must kill the relator")
        if min_poly != min_poly_2cos_pi_over(q):
            raise ValueError(f"min_poly must be that of 2cos(pi/{q}), got {min_poly}")
        for name, value in zip(self.__slots__, (n, q, min_poly, phi_a, phi_b)):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return self.n, self.q, self.min_poly, self.phi_a, self.phi_b

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._astuple()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return f"GroupContext({', '.join(f'{name}={value!r}' for name, value in self._asdict().items())})"

    def __reduce__(self):
        return GroupContext, self._astuple()


def group_context(n: int) -> GroupContext:
    """Build the context for G_n.  Supported range: 1 <= n <= 63.

    >>> ctx = group_context(2)
    >>> ctx.q, ctx.min_poly, ctx.phi_a, ctx.phi_b
    (3, (-1, 1), 2, -1)
    >>> group_context(5).phi_b
    -2
    """
    if not 1 <= n <= 63:
        raise ValueError("n must be in 1..63")
    q = n + 1
    d = math.gcd(n - 1, 2)
    return GroupContext(
        n=n,
        q=q,
        min_poly=min_poly_2cos_pi_over(q),
        phi_a=2 // d,
        phi_b=-(n - 1) // d,
    )


@functools.lru_cache(maxsize=None)
def ring_of(ctx: GroupContext) -> CosRing:
    """The coefficient ring Z[2cos(pi/q)] for ctx, cached per context."""
    return CosRing(ctx.q)
