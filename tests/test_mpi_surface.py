"""Tests for the extended MPI surface: reduce_scatter/alltoallv and
datatype dup/resized."""

import numpy as np
import pytest

from repro.errors import MPIDatatypeError, MPIError
from repro.mpi.datatypes import DOUBLE, INT, contiguous, create_resized, dup, vector
from repro.mpi.reduce_ops import MAX, SUM
from tests.helpers import run_ranks


class TestExtraCollectives:
    def test_reduce_scatter(self):
        def program(mpi):
            comm = mpi.comm_world
            # Rank r contributes [r*10 + slot for each slot].
            contributions = [comm.rank * 10 + slot for slot in range(comm.size)]
            result = yield from comm.reduce_scatter(contributions, op=SUM)
            return result

        results = run_ranks(program, nranks=3)
        # Slot s receives sum over r of (r*10 + s) = 30 + 3s.
        assert results == [30, 33, 36]

    def test_reduce_scatter_max(self):
        def program(mpi):
            comm = mpi.comm_world
            contributions = [(comm.rank + 1) * (slot + 1)
                             for slot in range(comm.size)]
            result = yield from comm.reduce_scatter(contributions, op=MAX)
            return result

        results = run_ranks(program, nranks=3)
        assert results == [3, 6, 9]

    def test_reduce_scatter_wrong_length(self):
        def program(mpi):
            comm = mpi.comm_world
            with pytest.raises(MPIError):
                yield from comm.reduce_scatter([1], op=SUM)
            yield from comm.barrier()
            return None

        run_ranks(program)

    def test_alltoallv_variable_payloads(self):
        def program(mpi):
            comm = mpi.comm_world
            outgoing = [b"x" * (dest + 1) * (comm.rank + 1)
                        for dest in range(comm.size)]
            result = yield from comm.alltoallv(outgoing)
            return [len(item) for item in result]

        results = run_ranks(program, nranks=3)
        for me, lengths in enumerate(results):
            assert lengths == [(me + 1) * (src + 1) for src in range(3)]


class TestDatatypeDupResized:
    def test_dup_is_independent(self):
        base = contiguous(4, INT).commit()
        copy = dup(base)
        assert not copy.committed
        copy.commit()
        buf = np.arange(4, dtype=np.int32)
        assert np.array_equal(copy.pack(buf), base.pack(buf))

    def test_resized_extent_changes_stride(self):
        # One int per instance, strided out to 12 bytes.
        t = create_resized(INT, lb=0, extent=12).commit()
        buf = np.arange(9, dtype=np.int32)
        packed = t.pack(buf, count=3)
        assert np.array_equal(packed, [0, 3, 6])

    def test_resized_interleave_idiom(self):
        """Scatter columns of a row-major matrix via resized vector."""
        rows, cols = 3, 4
        column = vector(rows, 1, cols, DOUBLE)
        col_type = create_resized(column, lb=0, extent=DOUBLE.extent).commit()
        matrix = np.arange(rows * cols, dtype=np.float64)
        packed = col_type.pack(matrix, count=cols)
        expected = matrix.reshape(rows, cols).T.ravel()
        assert np.array_equal(packed, expected)

    def test_negative_lb_shift(self):
        t = create_resized(INT, lb=-4, extent=8).commit()
        buf = np.arange(6, dtype=np.int32)
        # Elements now sit one int *after* each instance start.
        assert np.array_equal(t.pack(buf, count=2), [1, 3])

    def test_bad_lb_rejected(self):
        with pytest.raises(MPIDatatypeError, match="lower bound"):
            create_resized(INT, lb=4, extent=8)

    def test_bad_extent_rejected(self):
        with pytest.raises(MPIDatatypeError):
            create_resized(INT, lb=0, extent=0)
