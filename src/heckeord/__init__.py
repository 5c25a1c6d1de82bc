"""Exact decisions in the one-relator groups G_n = < a, b | b a^n b = a >:
word problem, sign trichotomy with one-signed witnesses, left orders,
and an independent 2x2 matrix oracle over Z[2cos(pi/(n+1))].

The API lives in the submodules (see the README's module map), for
example `heckeord.cone.decide_sign` and `heckeord.words.parse_word`.
"""

__version__ = "0.1.0"
