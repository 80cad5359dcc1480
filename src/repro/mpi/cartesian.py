"""Cartesian process topologies (MPI_Cart_create and friends).

Part of MPICH's generic layer: a :class:`CartComm` arranges a
communicator's processes on an N-dimensional (optionally periodic) grid
— the natural decomposition for the stencil workloads that motivate the
paper's meta-clusters.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.errors import MPIError, MPIRankError
from repro.mpi.communicator import Communicator
from repro.mpi.constants import PROC_NULL
from repro.mpi.group import Group


def dims_create(nnodes: int, ndims: int,
                dims: Sequence[int] | None = None) -> list[int]:
    """Choose a balanced grid shape (MPI_Dims_create).

    Fixed (nonzero) entries of ``dims`` are kept; zero entries are
    filled so the product equals ``nnodes``, balancing as evenly as
    possible with larger dimensions first.
    """
    dims = list(dims) if dims is not None else [0] * ndims
    if len(dims) != ndims:
        raise MPIError(f"dims has {len(dims)} entries for ndims={ndims}")
    fixed = 1
    free_positions = []
    for i, d in enumerate(dims):
        if d < 0:
            raise MPIError("negative dimension")
        if d > 0:
            fixed *= d
        else:
            free_positions.append(i)
    remaining, rem = divmod(nnodes, fixed) if fixed else (0, 1)
    if fixed == 0 or nnodes % fixed:
        raise MPIError(f"cannot factor {nnodes} over fixed dims {dims}")
    # Greedy balanced factorization of `remaining` into len(free) factors.
    factors = _balanced_factors(remaining, len(free_positions))
    for position, factor in zip(free_positions, factors):
        dims[position] = factor
    return dims


def _balanced_factors(n: int, k: int) -> list[int]:
    if k == 0:
        if n != 1:
            raise MPIError(f"cannot place {n} processes with no free dims")
        return []
    factors = [1] * k
    remaining = n
    divisor = 2
    primes = []
    while divisor * divisor <= remaining:
        while remaining % divisor == 0:
            primes.append(divisor)
            remaining //= divisor
        divisor += 1
    if remaining > 1:
        primes.append(remaining)
    for prime in sorted(primes, reverse=True):
        smallest = min(range(k), key=lambda i: factors[i])
        factors[smallest] *= prime
    return sorted(factors, reverse=True)


class CartComm(Communicator):
    """A communicator with an attached Cartesian grid."""

    def __init__(self, env, group: Group, context_id: int,
                 dims: Sequence[int], periods: Sequence[bool]):
        super().__init__(env, group, context_id)
        self.dims = tuple(int(d) for d in dims)
        self.periods = tuple(bool(p) for p in periods)
        if len(self.dims) != len(self.periods):
            raise MPIError("dims and periods lengths differ")
        total = 1
        for d in self.dims:
            total *= d
        if total != self.size:
            raise MPIError(
                f"grid {self.dims} holds {total} processes, communicator "
                f"has {self.size}"
            )

    @property
    def ndims(self) -> int:
        return len(self.dims)

    # -- coordinate arithmetic (row-major, as in MPICH) -------------------------

    def coords_of(self, rank: int) -> tuple[int, ...]:
        """Grid coordinates of ``rank`` (MPI_Cart_coords)."""
        if not 0 <= rank < self.size:
            raise MPIRankError(f"rank {rank} outside cart of size {self.size}")
        coords = []
        remainder = rank
        for extent in reversed(self.dims):
            coords.append(remainder % extent)
            remainder //= extent
        return tuple(reversed(coords))

    @property
    def coords(self) -> tuple[int, ...]:
        """This process's grid coordinates."""
        return self.coords_of(self.rank)

    def rank_of(self, coords: Sequence[int]) -> int:
        """Rank at ``coords`` (MPI_Cart_rank); PROC_NULL if off-grid on a
        non-periodic dimension."""
        if len(coords) != self.ndims:
            raise MPIError(f"expected {self.ndims} coordinates")
        rank = 0
        for coordinate, extent, periodic in zip(coords, self.dims,
                                                self.periods):
            if periodic:
                coordinate %= extent
            elif not 0 <= coordinate < extent:
                return PROC_NULL
            rank = rank * extent + coordinate
        return rank

    def shift(self, direction: int, displacement: int = 1) -> tuple[int, int]:
        """(source, dest) ranks for a shift (MPI_Cart_shift)."""
        if not 0 <= direction < self.ndims:
            raise MPIError(f"direction {direction} outside {self.ndims} dims")
        here = list(self.coords)
        ahead = list(here)
        behind = list(here)
        ahead[direction] += displacement
        behind[direction] -= displacement
        return self.rank_of(behind), self.rank_of(ahead)


def create_cart(comm: Communicator, dims: Sequence[int],
                periods: Sequence[bool] | None = None,
                reorder: bool = False) -> Generator:
    """Collective: build a :class:`CartComm` over ``comm`` (MPI_Cart_create).

    ``reorder`` is accepted for API fidelity but ignored — the simulator
    has no placement-driven reason to renumber.
    """
    periods = tuple(periods) if periods is not None else (False,) * len(dims)
    yield from comm.barrier()
    context = comm.env.allocate_context()
    return CartComm(comm.env, comm.group, context, dims, periods)
