"""The three benchmark workloads, each a real multi-rank ``World`` program.

A workload supplies, per rank, a set-up step (interpose, commit datatypes,
allocate and fill buffers), one unit of timed work (``step``, the same
exchange every iteration) and an output check that runs outside the timed
window.  Every input is a function of the CLI seed only.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.apps.halo import DIRECTIONS, HaloSpec
from repro.apps.stencil import HaloExchange
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.world import World
from repro.tempi.interposer import interpose

#: Bytes of the receive buffer the all-to-all must leave untouched.
SENTINEL = 0xEE


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).view(np.uint8).data)
    return h.hexdigest()


class Workload:
    """One benchmark workload (subclasses fill in the rank program)."""

    name: str
    nranks: int
    #: Iterations after the warm-up that every set-up world repeats, so the
    #: timed world's first ``1 + verify_prefix`` iterations have references.
    #: Outputs are checked on these and after a world's last iteration.
    verify_prefix: int = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def world(self) -> World:
        raise NotImplementedError

    def setup(self, ctx, model):
        """Interpose (or not), commit and fill; returns ``(comm, state)``."""
        raise NotImplementedError

    def step(self, ctx, state, index: int) -> None:
        raise NotImplementedError

    def check(self, ctx, state, index: int) -> tuple[bool, str]:
        """(outputs correct, digest of this rank's outputs) after ``index``."""
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# Sec. 6.4 halo exchange
# --------------------------------------------------------------------------- #

HALO_SPEC = HaloSpec(nx=8, ny=8, nz=8, radius=2, fields=4, bytes_per_field=8)


class Halo(Workload):
    """The 3-D stencil's 26-direction halo exchange (``mode="neighbor"``)."""

    def __init__(self, seed: int, *, tempi: bool) -> None:
        super().__init__(seed)
        self.tempi = tempi
        # 27 ranks (3x3x3, 6 per node) through TEMPI; 8 ranks (2x2x2) on the
        # system MPI, where one exchange takes about a second.
        self.name = "halo_tempi" if tempi else "halo_baseline"
        self.nranks = 27 if tempi else 8
        self.ranks_per_node = 6 if tempi else 4
        self.verify_prefix = 2 if tempi else 1

    def world(self) -> World:
        return World(self.nranks, ranks_per_node=self.ranks_per_node)

    def fill_value(self, rank: int) -> int:
        return (self.seed * 37 + rank * 11 + 1) % 251

    def setup(self, ctx, model):
        comm = interpose(ctx, model=model) if self.tempi else ctx.comm
        app = HaloExchange(ctx, comm, HALO_SPEC, mode="neighbor")
        app.fill_interior(self.fill_value(ctx.rank))
        return comm, app

    def step(self, ctx, app, index: int) -> None:
        app.exchange()

    def check(self, ctx, app, index: int) -> tuple[bool, str]:
        spec = HALO_SPEC
        ax, ay, az = spec.alloc_dims
        grid = app.local.data.reshape(az, ay, ax * spec.point_bytes)
        ok = True
        for direction in DIRECTIONS:
            # Ghost slab bounds per axis (z, y, x), in points.
            bounds = [
                _ghost_range(delta, n, spec.radius)
                for delta, n in zip(direction[::-1], (spec.nz, spec.ny, spec.nx))
            ]
            (z0, z1), (y0, y1), (x0, x1) = bounds
            slab = grid[z0:z1, y0:y1, x0 * spec.point_bytes : x1 * spec.point_bytes]
            ok = ok and bool(np.all(slab == self.fill_value(app.grid.neighbor(app.rank, direction))))
        return ok, _digest(app.local.data)


def _ghost_range(delta: int, n: int, radius: int) -> tuple[int, int]:
    """Point range of the ghost shell along one axis for a direction component."""
    if delta == 0:
        return radius, radius + n
    if delta < 0:
        return 0, radius
    return n + radius, n + 2 * radius


# --------------------------------------------------------------------------- #
# Small typed all-to-all: the per-message control plane
# --------------------------------------------------------------------------- #

class AlltoallSmall(Workload):
    """32 ranks, 2 x ``Type_vector(2, 64, 96, BYTE)`` items per peer."""

    name = "alltoall_small"
    nranks = 32
    items = 2

    def world(self) -> World:
        return World(self.nranks, ranks_per_node=4)

    def fill_value(self, source: int, dest: int) -> int:
        return (self.seed * 13 + source * 7 + dest * 3 + 1) % 251

    def setup(self, ctx, model):
        comm = interpose(ctx, model=model)
        datatype = comm.Type_commit(Type_vector(2, 64, 96, BYTE))
        extent = datatype.extent
        counts = [self.items] * ctx.size
        displs = [self.items * extent * peer for peer in range(ctx.size)]
        send = ctx.gpu.malloc(self.items * extent * ctx.size)
        recv = ctx.gpu.malloc(self.items * extent * ctx.size)
        rows = send.data.reshape(ctx.size, -1)
        for peer in range(ctx.size):
            rows[peer] = self.fill_value(ctx.rank, peer)
        recv.data[:] = SENTINEL
        # Which bytes of one peer's segment the datatype covers.
        mask = np.zeros(self.items * extent, dtype=bool)
        for item in range(self.items):
            for block in range(2):
                start = item * extent + block * 96
                mask[start : start + 64] = True
        return comm, (comm, datatype, counts, displs, send, recv, mask)

    def step(self, ctx, state, index: int) -> None:
        comm, datatype, counts, displs, send, recv, _ = state
        comm.Alltoallv(
            send, counts, displs, recv, counts, displs,
            sendtypes=datatype, recvtypes=datatype,
        )

    def check(self, ctx, state, index: int) -> tuple[bool, str]:
        recv, mask = state[5], state[6]
        rows = recv.data.reshape(ctx.size, -1)
        expected = np.array(
            [self.fill_value(peer, ctx.rank) for peer in range(ctx.size)], dtype=np.uint8
        )
        ok = np.all(rows[:, mask] == expected[:, None]) and np.all(rows[:, ~mask] == SENTINEL)
        return bool(ok), _digest(recv.data)


def make(name: str, seed: int) -> Workload:
    """The workload called ``name``, with inputs drawn from ``seed``."""
    if name == "halo_tempi":
        return Halo(seed, tempi=True)
    if name == "halo_baseline":
        return Halo(seed, tempi=False)
    if name == "alltoall_small":
        return AlltoallSmall(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("halo_tempi", "halo_baseline", "alltoall_small")
