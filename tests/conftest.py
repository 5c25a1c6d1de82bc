"""Shared test configuration: hypothesis profiles and word strategies."""

import itertools
import os

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from heckeord.words import GEN_A, GEN_B, concat, invert, word_from_syllables

# Exact-arithmetic oracle calls can exceed hypothesis's default deadline
# on cold caches; wall-clock flakiness is noise here, so disable it.
settings.register_profile(
    "heckeord",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# HYPOTHESIS_PROFILE=ci-deep runs every property that does not pin its
# own max_examples (the packed fold against the tuple fold among them)
# on 500 examples instead of Hypothesis's default 100.
settings.register_profile("ci-deep", settings.get_profile("heckeord"), max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "heckeord"))

# Checks too slow for Tier-1 run only in the ci-deep step.
deep_only = pytest.mark.skipif(
    os.environ.get("HYPOTHESIS_PROFILE") != "ci-deep", reason="ci-deep only (HYPOTHESIS_PROFILE=ci-deep)"
)


def syllable_lists(max_syllables: int = 6, max_exp: int = 4):
    """Raw (gen, exp) lists; word_from_syllables makes them reduced words."""
    syllable = st.tuples(
        st.sampled_from([GEN_A, GEN_B]),
        st.integers(min_value=-max_exp, max_value=max_exp).filter(lambda e: e != 0),
    )
    return st.lists(syllable, max_size=max_syllables)


def words(max_syllables: int = 6, max_exp: int = 4):
    """Freely reduced words built from random syllable lists."""
    return syllable_lists(max_syllables, max_exp).map(word_from_syllables)


def positive_words(max_len: int):
    """Every positive word of at most max_len letters (the free monoid on
    a, b), by length, a before b."""
    letters = ((GEN_A, 1), (GEN_B, 1))
    for length in range(max_len + 1):
        for spelling in itertools.product(letters, repeat=length):
            yield word_from_syllables(spelling)


def relator(n: int):
    """b a^n b a^-1, the defining relator of G_n: trivial in the group."""
    return ((GEN_B, 1), (GEN_A, n), (GEN_B, 1), (GEN_A, -1))


@st.composite
def trivial_words(draw, n: int, conjugates: int = 2, max_syllables: int = 4):
    """Products of conjugates x r^+-1 x^-1 of the relator r of G_n.

    Each is the identity in G_n while its spelling is not, so verdicts
    and comparisons meet the IDENTITY / EQUAL case on purpose instead of
    by rare chance.
    """
    out = ()
    for _ in range(draw(st.integers(min_value=1, max_value=conjugates))):
        x = draw(words(max_syllables))
        r = relator(n) if draw(st.booleans()) else invert(relator(n))
        out = concat(out, x, r, invert(x))
    return out
