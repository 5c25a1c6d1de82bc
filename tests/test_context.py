"""GroupContext: built from n alone, refusing n outside 1..63, and an
immutable value: equal and hashed by n, with a fixed repr, and rebuilt
from n when unpickled."""

import pickle

import pytest

from heckeord.context import GroupContext, group_context

G2 = dict(n=2, q=3, min_poly=(-1, 1), phi_a=2, phi_b=-1)


class TestValue:
    def test_fields_and_repr(self):
        ctx = group_context(2)
        assert ctx._asdict() == G2
        assert repr(ctx) == "GroupContext(n=2, q=3, min_poly=(-1, 1), phi_a=2, phi_b=-1)"

    def test_refuses_assignment(self):
        ctx = group_context(2)
        for name in ("n", "q", "min_poly", "phi_a", "phi_b", "other"):
            with pytest.raises(AttributeError):
                setattr(ctx, name, 5)
            with pytest.raises(AttributeError):
                delattr(ctx, name)
        assert ctx._asdict() == G2

    def test_equal_and_hashed_by_fields(self):
        assert group_context(5) is not group_context(5)
        assert group_context(5) == group_context(5) == GroupContext(5)
        assert hash(group_context(5)) == hash(GroupContext(5))
        assert group_context(5) != group_context(6)
        assert group_context(2) != tuple(G2.values())
        assert len({group_context(n) for n in (1, 2, 2, 63, 63)}) == 3

    @pytest.mark.parametrize("n", range(1, 64))
    def test_pickle_round_trip(self, n):
        ctx = group_context(n)
        copy = pickle.loads(pickle.dumps(ctx))
        assert copy == ctx and repr(copy) == repr(ctx)

    def test_unpickling_runs_the_checks(self):
        # A pickle rebuilds the context from n through its constructor,
        # so a worker process refuses an n outside the supported range.
        assert group_context(2).__reduce__() == (GroupContext, (2,))
        for n in (0, 64):
            with pytest.raises(ValueError, match="^n must be in 1\\.\\.63$"):
                GroupContext(n)
