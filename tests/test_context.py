"""GroupContext: the constants bundle rejects inconsistent values, and
is an immutable value: equal and hashed by its fields, with a fixed
repr, and rebuilt through its checks when unpickled."""

import pickle

import pytest

from heckeord.context import GroupContext, group_context

G2 = dict(n=2, q=3, min_poly=(-1, 1), phi_a=2, phi_b=-1)


class TestPostInitChecks:
    """The consistency checks are real code, so they also hold under -O."""

    def test_q_must_be_n_plus_one(self):
        with pytest.raises(ValueError, match="q must be n \\+ 1"):
            GroupContext(**dict(G2, q=4))

    def test_phi_must_kill_the_relator(self):
        with pytest.raises(ValueError, match="phi must kill the relator"):
            GroupContext(**dict(G2, phi_b=5))

    def test_min_poly_must_be_that_of_2cos_pi_over_q(self):
        # oracle reads ctx.min_poly at the plain layouts: with (-2, 1) at
        # q = 3 it would take lam for 2 and miss that b^3 is a b-power.
        with pytest.raises(ValueError, match="min_poly must be that of 2cos\\(pi/3\\)"):
            GroupContext(**dict(G2, min_poly=(-2, 1)))
        with pytest.raises(ValueError, match="min_poly must be that of 2cos\\(pi/8\\)"):
            GroupContext(**dict(group_context(7)._asdict(), min_poly=(1, -2, -1, 1)))


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
        assert group_context(5) == group_context(5) == GroupContext(**group_context(5)._asdict())
        assert hash(group_context(5)) == hash(group_context(5))
        assert group_context(5) != group_context(6)
        assert group_context(2) != tuple(G2.values())
        assert len({group_context(n) for n in (1, 2, 2, 63, 63)}) == 3

    @pytest.mark.parametrize("n", [1, 2, 62, 63])
    def test_pickle_round_trip(self, n):
        ctx = group_context(n)
        copy = pickle.loads(pickle.dumps(ctx))
        assert copy == ctx and repr(copy) == repr(ctx)

    def test_unpickling_runs_the_checks(self):
        # A pickle rebuilds the context through its constructor, checks
        # included, so what a worker process receives is checked again.
        rebuild, fields = group_context(2).__reduce__()
        assert rebuild is GroupContext and fields == tuple(G2.values())
