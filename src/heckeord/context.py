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

import dataclasses
import functools
import math

from .algebra import CosRing, min_poly_2cos_pi_over


@dataclasses.dataclass(frozen=True)
class GroupContext:
    """Everything the decision procedures need to know about one G_n."""

    n: int  # the defining exponent: b a^n b = a
    q: int  # n + 1: delta = a^q is central; Hecke parameter
    min_poly: tuple[int, ...]  # minimal polynomial of 2cos(pi/q)
    phi_a: int  # phi(a) for the torsion-free abelianized coordinate
    phi_b: int  # phi(b)

    def __post_init__(self):
        if self.q != self.n + 1:
            raise ValueError(f"q must be n + 1, got n = {self.n}, q = {self.q}")
        if self.n * self.phi_a + 2 * self.phi_b != self.phi_a:
            raise ValueError("phi must kill the relator")


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
