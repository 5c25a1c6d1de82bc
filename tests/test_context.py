"""GroupContext: the constants bundle rejects inconsistent values."""

import dataclasses

import pytest

from heckeord.context import group_context


class TestPostInitChecks:
    """The consistency checks are real code, so they also hold under -O."""

    def test_q_must_be_n_plus_one(self):
        with pytest.raises(ValueError, match="q must be n \\+ 1"):
            dataclasses.replace(group_context(2), q=4)

    def test_phi_must_kill_the_relator(self):
        with pytest.raises(ValueError, match="phi must kill the relator"):
            dataclasses.replace(group_context(2), phi_b=5)
