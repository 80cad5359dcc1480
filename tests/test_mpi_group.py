"""Unit and property tests for MPI groups."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MPIRankError
from repro.mpi.constants import UNDEFINED
from repro.mpi.group import Group


class TestGroupBasics:
    def test_size_and_lookup(self):
        g = Group([4, 2, 7])
        assert g.size == 3
        assert g.world_rank(0) == 4
        assert g.rank_of(7) == 2
        assert g.rank_of(99) == UNDEFINED

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(MPIRankError):
            Group([1, 1])

    def test_negative_rank_rejected(self):
        with pytest.raises(MPIRankError):
            Group([-1])

    def test_world_rank_out_of_range(self):
        with pytest.raises(MPIRankError):
            Group([0, 1]).world_rank(5)


ranks_lists = st.lists(st.integers(0, 30), min_size=0, max_size=12,
                       unique=True)


class TestGroupProperties:
    @given(ranks_lists.filter(lambda xs: len(xs) > 0))
    @settings(max_examples=80, deadline=None)
    def test_rank_roundtrip(self, ranks):
        g = Group(ranks)
        for i in range(g.size):
            assert g.rank_of(g.world_rank(i)) == i
