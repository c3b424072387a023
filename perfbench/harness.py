"""Set-up, timed and traced phases of one benchmark run.

One benchmark process, no pool: every phase builds a ``World`` and runs the
workload's rank program on its rank threads.  Rank 0 times each iteration
barrier to barrier, in process CPU time (``time.process_time``, every
thread of the process) and in wall time (``time.perf_counter``); every rank
records its virtual clock advance.  Outputs are checked outside the timed
window, and every iteration is compared with the first earlier run of the
same index (same seed, same inputs): its virtual time and output digest
must repeat bit for bit.  An exception (the world aborts and is rebuilt),
wrong bytes or a repeat mismatch each count the iteration as failed; the
run goes on.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.machine.spec import SUMMIT
from repro.mpi.errors import MpiCommError
from repro.mpi.world import WorldError
from repro.tempi.interposer import TempiCommunicator
from repro.tempi.selection import CalibrationRegistry

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Loop trips of :func:`reference_kernel`.
REFERENCE_LOOPS = 6000
#: CPU milliseconds :func:`reference_kernel` takes, as a run's mean, on a
#: 2-vCPU Intel Xeon VM with Python 3.11.7.  Host CPU times divided by
#: :meth:`Runner.host_speed` are in milliseconds of that reference host.
REFERENCE_MS = 2.0
#: Rank 0 runs the kernel once per this much CPU time of the previous
#: iteration (and at least once per iteration), so long iterations get as
#: many samples of the host's speed as short ones.
REFERENCE_PERIOD_S = 0.1
#: Kernel runs just before each set-up starts (no rank thread exists then).
SETUP_REFERENCES = 25


def reference_kernel() -> float:
    """CPU seconds of the calling thread for a fixed pure-Python loop.

    The loop depends on nothing in the simulator, so its time measures only
    how fast the host runs Python right now.  Rank 0 runs it before every
    opening barrier, outside the timed window; ``thread_time`` leaves out
    whatever the other rank threads do meanwhile.
    """
    started = time.thread_time()
    table: dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_LOOPS):
        key = i & 127
        table[key] = table.get(key, 0) + i
        total += len(str(key))
    return time.thread_time() - started

#: Interposer and resource-cache counters summed over ranks.
COUNTERS = (
    "plan_cache_hits", "plan_cache_misses", "selection_memo_hits", "selection_memo_misses",
    "buffer_hits", "buffer_misses", "persistent_hits", "persistent_misses",
)

#: Public ``NicTimeline`` counters (stall times are virtual seconds).
NIC_COUNTERS = (
    "stalls", "stalled_s", "ingest_stalls", "ingest_stalled_s", "fabric_stalls", "fabric_stalled_s",
)


def counters(comm) -> dict:
    if not isinstance(comm, TempiCommunicator):
        return dict.fromkeys(COUNTERS, 0)
    stats, cache = comm.stats, comm.tempi.cache.stats
    return {
        "plan_cache_hits": stats.plan_cache_hits,
        "plan_cache_misses": stats.plan_cache_misses,
        "selection_memo_hits": stats.selection_memo_hits,
        "selection_memo_misses": stats.selection_memo_misses,
        "buffer_hits": cache.buffer_hits,
        "buffer_misses": cache.buffer_misses,
        "persistent_hits": cache.persistent_hits,
        "persistent_misses": cache.persistent_misses,
    }


def nic_counters(nic) -> dict:
    return {name: getattr(nic, name) for name in NIC_COUNTERS}


def root_cause(error: WorldError) -> tuple[int, BaseException]:
    """The failure that aborted the world, not the other ranks' wake-ups."""
    secondary = (threading.BrokenBarrierError, MpiCommError)
    ordered = sorted(error.failures.items(), key=lambda item: (isinstance(item[1], secondary), item[0]))
    return ordered[0]


@dataclass
class Phase:
    """A timed phase: a wall-clock budget shared by the worlds it spans."""

    duration: float
    deadline: Optional[float] = None
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    virt: list = field(default_factory=list)
    msgs: int = 0
    recovery_cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Iterations whose virtual time or digest did not repeat their reference.
    mismatches: int = 0
    counters: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    nic: dict = field(default_factory=lambda: dict.fromkeys(NIC_COUNTERS, 0))

    def running(self) -> bool:
        now = time.perf_counter()
        if self.deadline is None:
            self.deadline = now + self.duration
        return now < self.deadline

    @property
    def cpu_s(self) -> float:
        """Timed-phase CPU time: iteration windows plus failure recovery."""
        return sum(self.cpus) + self.recovery_cpu_s


@dataclass
class Plan:
    """Which iterations one world runs."""

    first: int
    #: The first iteration is a set-up's warm-up (untimed).
    setup: bool
    #: Stop after this index (set-up-only worlds); ``None``: run the phase.
    last: Optional[int] = None
    phase: Optional[Phase] = None

    def timed(self, index: int) -> bool:
        return self.phase is not None and not (self.setup and index == self.first)

    def go(self, index: int) -> bool:
        if self.last is not None:
            return index <= self.last
        return not self.timed(index) or self.phase.running()


class WorldLog:
    """What the rank threads of one world report to the host-side runner."""

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self.decisions: list[bool] = []
        #: (next iteration timed, :func:`reference_kernel` seconds) per run
        #: of the kernel by rank 0.
        self.references: list[tuple[bool, float]] = []
        self.current: list[Optional[int]] = [None] * nranks
        #: (wall, CPU) clock readings of rank 0.
        self.iter_start: Optional[tuple] = None
        self.first_start: Optional[tuple] = None
        self.warm_end: Optional[tuple] = None
        self.walls: dict[int, float] = {}
        self.cpus: dict[int, float] = {}
        self.msgs: dict[int, int] = {}
        self.timed: list[int] = []
        self.virt: dict[int, list] = {}
        self.checks: dict[int, list] = {}
        self.counters_base: list = [None] * nranks
        self.counters: list = [None] * nranks
        self.nic_base: Optional[dict] = None
        self.nic_end: Optional[dict] = None


def rank_main(ctx, workload, model, plan: Plan, log: WorldLog, tracer) -> None:
    """The program every rank runs: set up, then iterate as ``plan`` says."""
    comm, state = workload.setup(ctx, model)
    rank, size = ctx.rank, ctx.size
    router, nic = ctx.world.router, ctx.world.nic
    index, decision = plan.first, 0
    posted = 0
    started = ended = (0.0, 0.0)
    while True:
        if rank == 0:
            previous_cpu = ended[1] - started[1]
            timed = plan.timed(index)
            for _ in range(1 + int(previous_cpu / REFERENCE_PERIOD_S)):
                log.references.append((timed, reference_kernel()))
            log.decisions.append(plan.go(index))
            posted = router.messages_posted
        comm.Barrier()
        if not log.decisions[decision]:
            break
        timed = plan.timed(index)
        log.current[rank] = index
        if timed and log.counters_base[rank] is None:
            log.counters_base[rank] = counters(comm)
        if rank == 0:
            if timed and log.nic_base is None:
                log.nic_base = nic_counters(nic)
            started = (time.perf_counter(), time.process_time())
            log.iter_start = started
            if log.first_start is None:
                log.first_start = started
        if tracer is not None and timed:
            tracer.set_iteration(index)
        clock0 = ctx.clock.now
        try:
            workload.step(ctx, state, index)
            comm.Barrier()
        finally:
            if tracer is not None:
                tracer.set_iteration(None)
        log.virt.setdefault(index, [0.0] * size)[rank] = ctx.clock.now - clock0
        if rank == 0:
            ended = (time.perf_counter(), time.process_time())
            log.walls[index] = ended[0] - started[0]
            log.cpus[index] = ended[1] - started[1]
            log.msgs[index] = router.messages_posted - posted
            if timed:
                log.timed.append(index)
            if plan.setup and index == plan.first:
                log.warm_end = ended
        if index <= workload.verify_prefix:
            log.checks.setdefault(index, [None] * size)[rank] = workload.check(ctx, state, index)
        if timed:
            log.counters[rank] = counters(comm)
        index += 1
        decision += 1
    last = index - 1
    if last > max(plan.first, workload.verify_prefix):
        # The last iteration's outputs are still in place.
        log.checks.setdefault(last, [None] * size)[rank] = workload.check(ctx, state, last)
    if rank == 0:
        log.nic_end = nic_counters(nic)


class Runner:
    """Runs one workload's phases and keeps the failure accounting."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.reference: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        #: Failed iterations by cause.
        self.exceptions = 0
        self.wrong_bytes = 0
        self.mismatches = 0
        self.errors: list[str] = []
        #: Per set-up (wall, CPU) seconds.
        self.setup_s: list[tuple] = []
        #: Reference-kernel seconds around the set-ups and before timed
        #: iterations: each phase's times are scaled by its own host speed.
        self.references: dict[bool, list[float]] = {False: [], True: []}
        self.worlds = 0

    # ------------------------------------------------------------------ world
    def run_world(self, model, plan: Plan, tracer=None) -> tuple[WorldLog, Optional[WorldError]]:
        log = WorldLog(self.workload.nranks)
        error = None
        self.worlds += 1
        try:
            self.workload.world().run(rank_main, self.workload, model, plan, log, tracer)
        except WorldError as exc:
            error = exc
        # Worlds hold reference cycles (contexts <-> communicators); free
        # each one's device buffers before the next is built.
        gc.collect()
        self._account(log, plan, error)
        return log, error

    def host_speed(self, timed: bool) -> float:
        """Mean reference-kernel time over :data:`REFERENCE_MS` (1.0: reference host).

        ``timed`` picks the samples taken before timed iterations, else those
        taken around the set-ups.  The mean, not the median: a shared host
        can alternate between a fast and a slow phase within a second, and
        the kernel's mean tracks the share of time spent in each, as the
        workload's CPU time does.
        """
        return statistics.fmean(self.references[timed]) * 1e3 / REFERENCE_MS

    def _account(self, log: WorldLog, plan: Plan, error: Optional[WorldError]) -> None:
        phase = plan.phase
        for timed, seconds in log.references:
            self.references[timed].append(seconds)
        completed = sorted(log.walls)
        for index in completed:
            self.attempted += 1
            wrong, mismatch = self._judge(log, index)
            bad = int(wrong or mismatch)
            self.failed += bad
            if phase is not None and index in log.timed:
                phase.attempted += 1
                phase.failed += bad
                phase.mismatches += int(mismatch)
                phase.walls.append(log.walls[index])
                phase.cpus.append(log.cpus[index])
                phase.msgs += log.msgs[index]
                phase.virt.append(max(log.virt[index]))
        if error is not None:
            self.attempted += 1
            self.failed += 1
            self.exceptions += 1
            index = self.failed_index(log, plan, error)
            rank, cause = root_cause(error)
            self.errors.append(f"iteration {index}: rank {rank}: {cause!r}")
            if phase is not None and plan.timed(index):
                phase.attempted += 1
                phase.failed += 1
        if phase is not None:
            for rank in range(log.nranks):
                base, end = log.counters_base[rank], log.counters[rank]
                if base is not None and end is not None:
                    for name in COUNTERS:
                        phase.counters[name] += end[name] - base[name]
            if log.nic_base is not None and log.nic_end is not None:
                for name in NIC_COUNTERS:
                    phase.nic[name] += log.nic_end[name] - log.nic_base[name]

    @staticmethod
    def failed_index(log: WorldLog, plan: Plan, error: WorldError) -> int:
        started = [log.current[rank] for rank in error.failures if log.current[rank] is not None]
        return max(started) if started else plan.first

    def _judge(self, log: WorldLog, index: int) -> tuple[bool, bool]:
        """(wrong output bytes, failed to repeat its reference) for ``index``."""
        virt = max(log.virt[index])
        checks = log.checks.get(index)
        digest = None
        wrong = False
        if checks is not None and all(c is not None for c in checks):
            if not all(ok for ok, _ in checks):
                self.wrong_bytes += 1
                self.errors.append(f"iteration {index}: wrong output bytes")
                wrong = True
            digest = hashlib.sha256("".join(d for _, d in checks).encode()).hexdigest()
        reference = self.reference.get(index)
        if reference is None:
            self.reference[index] = (virt, digest)
            return wrong, False
        ref_virt, ref_digest = reference
        if ref_digest is None and digest is not None:
            self.reference[index] = (ref_virt, digest)
        if virt != ref_virt or (digest is not None and ref_digest not in (None, digest)):
            self.mismatches += 1
            self.errors.append(
                f"iteration {index}: did not repeat its first run "
                f"(virtual {virt!r} vs {ref_virt!r}, digest "
                f"{'differs' if digest != ref_digest else 'equal'})"
            )
            return wrong, True
        return wrong, False

    # ----------------------------------------------------------------- phases
    def setup_and_time(self, duration: float) -> tuple[Phase, object]:
        """``SETUPS`` set-ups; the last world continues into a timed phase."""
        phase = Phase(duration)
        wl = self.workload
        for k in range(SETUPS):
            self.references[False].extend(reference_kernel() for _ in range(SETUP_REFERENCES))
            started = (time.perf_counter(), time.process_time())
            model = CalibrationRegistry().model_for(SUMMIT)
            last = k == SETUPS - 1
            plan = Plan(
                first=0, setup=True, last=None if last else wl.verify_prefix,
                phase=phase if last else None,
            )
            log, error = self.run_world(model, plan)
            if log.warm_end is not None:
                self.setup_s.append(
                    (log.warm_end[0] - started[0], log.warm_end[1] - started[1])
                )
        self.continue_phase(phase, model, plan, log, error)
        return phase, model

    def traced_phase(self, model, duration: float, tracer) -> Phase:
        """A fresh world (set-up included) with every layer entry point wrapped."""
        phase = Phase(duration)
        tracer.install()
        try:
            plan = Plan(first=0, setup=True, phase=phase)
            log, error = self.run_world(model, plan, tracer)
            self.continue_phase(phase, model, plan, log, error, tracer)
        finally:
            tracer.uninstall()
        return phase

    def continue_phase(self, phase: Phase, model, plan: Plan, log: WorldLog, error, tracer=None) -> None:
        """Rebuild the world after each failure until time is up."""
        while phase.running():
            if error is None:
                return
            index = self.failed_index(log, plan, error) + 1
            recovery_from = log.iter_start or (0.0, time.process_time())
            plan = Plan(first=index, setup=False, phase=phase)
            log, error = self.run_world(model, plan, tracer)
            if log.first_start is not None:
                phase.recovery_cpu_s += log.first_start[1] - recovery_from[1]
