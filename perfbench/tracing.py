"""Layer-attributed tracing for the traced benchmark run.

The tracer wraps the public entry points of each layer (see :data:`LAYERS`)
from outside the library: module functions are replaced in every module that
looks them up (including ``from ... import`` aliases), methods are replaced
on their class.  Each wrapped call records one span on a per-thread stack
with its name, layer, parent span, iteration id, thread, wall clock
(``time.perf_counter``) and per-thread CPU clock (``time.thread_time``).
Self time is computed when a span closes: its own duration minus the
durations of the child spans it enclosed.  Spans stay in memory and are
written out once, by :meth:`Tracer.write`, after the run.

``busy`` is self CPU time of the calling thread; ``wait`` is self wall time
minus busy: time the thread was runnable-but-not-running or blocked (GIL,
locks, condition waits).
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

#: Layer name -> (module, attribute path) of every wrapped entry point.  A
#: dotted attribute path names a method on a class.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "mpi.typemap": (
        ("repro.mpi.typemap", "offsets_and_lengths"),
        ("repro.mpi.typemap", "flatten"),
        ("repro.mpi.typemap", "flatten_many"),
    ),
    "mpi.baseline": (
        ("repro.mpi.baseline", "BaselineDatatypeEngine.pack"),
        ("repro.mpi.baseline", "BaselineDatatypeEngine.unpack"),
    ),
    "gpu.kernels": (
        ("repro.gpu.kernels", "pack_strided"),
        ("repro.gpu.kernels", "pack_strided_many"),
        ("repro.gpu.kernels", "unpack_strided"),
        ("repro.gpu.kernels", "unpack_strided_many"),
        ("repro.gpu.kernels", "copy_block_list"),
    ),
    "mpi.p2p": (
        ("repro.mpi.p2p", "MessageRouter.post"),
        ("repro.mpi.p2p", "MessageRouter.receive"),
    ),
    "mpi.world": (("repro.mpi.world", "World.barrier_wait"),),
    "machine.nic": (
        ("repro.machine.nic", "NicTimeline.reserve"),
        ("repro.machine.nic", "NicTimeline.reserve_batch"),
        ("repro.machine.nic", "NicTimeline.ingest"),
        ("repro.machine.nic", "NicTimeline.ingest_batch_vec"),
    ),
    "tempi.progress": (
        ("repro.tempi.progress", "ProgressEngine.reserve_wire"),
        ("repro.tempi.progress", "ProgressEngine.reserve_wire_batch"),
    ),
    "tempi.plan": (
        ("repro.tempi.plan", "compile_exchange"),
        ("repro.tempi.plan", "compile_allreduce"),
    ),
    "tempi.selection": (
        ("repro.tempi.selection", "FixedSelector.__call__"),
        ("repro.tempi.selection", "FixedSelector.select_many"),
        ("repro.tempi.selection", "ModelSelector.__call__"),
        ("repro.tempi.selection", "ModelSelector.select_many"),
        ("repro.tempi.selection", "ContendedSelector.__call__"),
    ),
    "tempi.executor": (("repro.tempi.executor", "PlanExecutor.execute"),),
    "tempi.commit": (("repro.tempi.interposer", "TempiCommunicator.Type_commit"),),
    "tempi.cache": (
        ("repro.tempi.cache", "ResourceCache.get_buffer"),
        ("repro.tempi.cache", "ResourceCache.get_persistent"),
    ),
}

#: Name of the span recorded around a plan request's deferred completion
#: (the receive/unpack side of ``PlanExecutor.execute``).
REQUEST_COMPLETE = "PlanExecutor.request.complete"


class Span(NamedTuple):
    """One closed span; ``iteration`` is ``None`` outside timed iterations."""

    span_id: int
    parent: Optional[int]
    layer: str
    name: str
    iteration: Optional[int]
    thread: str
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    self_wall: float
    self_cpu: float
    #: Bytes moved (kernels) or messages booked (``reserve_batch``).
    units: int


class _Frame:
    __slots__ = ("span_id", "layer", "child_wall", "child_cpu")

    def __init__(self, span_id: int, layer: str) -> None:
        self.span_id = span_id
        self.layer = layer
        self.child_wall = 0.0
        self.child_cpu = 0.0


def _kernel_bytes(result, stack: list[_Frame]) -> int:
    """Bytes a kernel moved, counted once at the outermost kernel span."""
    if any(frame.layer == "gpu.kernels" for frame in stack):
        return 0
    return int(result)


def _batch_messages(result, stack: list[_Frame]) -> int:
    """Messages one ``reserve_batch`` call booked."""
    return int(result.start.size)


#: Span name -> how to count the units (bytes, messages) one call handled.
UNITS: dict[str, Callable] = {
    "kernels.pack_strided": _kernel_bytes,
    "kernels.pack_strided_many": _kernel_bytes,
    "kernels.unpack_strided": _kernel_bytes,
    "kernels.unpack_strided_many": _kernel_bytes,
    "NicTimeline.reserve_batch": _batch_messages,
}


class Tracer:
    """Collects spans from the wrapped layer entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[Callable[[], None]] = []

    # -------------------------------------------------------------- iteration
    def set_iteration(self, iteration: Optional[int]) -> None:
        """Tag the calling thread's later spans with ``iteration``."""
        self._local.iteration = iteration

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------- span
    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call."""
        tracer = self
        units = UNITS.get(name)

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = _Frame(next(tracer._ids), layer)
            stack.append(frame)
            result = None
            cpu0 = time.thread_time()
            wall0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                wall1 = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
                wall, cpu = wall1 - wall0, cpu1 - cpu0
                if parent is not None:
                    parent.child_wall += wall
                    parent.child_cpu += cpu
                if name == "PlanExecutor.execute" and getattr(result, "_complete", None):
                    # The request's deferred receive/unpack side runs at Wait.
                    result._complete = tracer.wrap(layer, REQUEST_COMPLETE, result._complete)
                tracer.spans.append(
                    Span(
                        span_id=frame.span_id,
                        parent=parent.span_id if parent is not None else None,
                        layer=layer,
                        name=name,
                        iteration=getattr(tracer._local, "iteration", None),
                        thread=threading.current_thread().name,
                        start=wall0,
                        end=wall1,
                        cpu_start=cpu0,
                        cpu_end=cpu1,
                        self_wall=wall - frame.child_wall,
                        self_cpu=cpu - frame.child_cpu,
                        units=units(result, stack) if units and result is not None else 0,
                    )
                )

        return traced

    # ---------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS` (undone by :meth:`uninstall`)."""
        for layer, entries in LAYERS.items():
            for module_name, path in entries:
                module = importlib.import_module(module_name)
                if "." in path:
                    class_name, attr = path.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self.wrap(layer, path, original))
                    self._restore.append(
                        lambda owner=owner, attr=attr, original=original: setattr(
                            owner, attr, original
                        )
                    )
                    continue
                original = getattr(module, path)
                traced = self.wrap(layer, f"{module_name.rsplit('.', 1)[-1]}.{path}", original)
                # Patch the function where it is looked up: the defining
                # module and every module holding a ``from ... import`` alias.
                for holder in list(sys.modules.values()):
                    namespace = getattr(holder, "__dict__", None)
                    if not namespace or not getattr(holder, "__name__", "").startswith("repro"):
                        continue
                    for alias, value in list(namespace.items()):
                        if value is original:
                            setattr(holder, alias, traced)
                            self._restore.append(
                                lambda holder=holder, alias=alias, original=original: setattr(
                                    holder, alias, original
                                )
                            )

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------ output
    def write(self, path) -> None:
        """Write every span as one CSV row (called once, after the run)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(",".join(Span._fields) + "\n")
            for span in self.spans:
                out.write(",".join("" if value is None else str(value) for value in span) + "\n")


@dataclass
class LayerTotals:
    """One layer's totals over a set of spans."""

    calls: int = 0
    busy_s: float = 0.0
    wait_s: float = 0.0
    units: int = 0


def layer_totals(spans, *, timed: bool) -> dict[str, LayerTotals]:
    """Per-layer calls and self times of timed (or set-up) spans."""
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        if (span.iteration is not None) != timed:
            continue
        row = totals[span.layer]
        row.calls += 1
        row.busy_s += span.self_cpu
        row.wait_s += span.self_wall - span.self_cpu
        row.units += span.units
    return totals


def booked_messages(spans) -> tuple[int, int]:
    """Timed-phase messages booked by ``reserve_batch`` and by scalar ``reserve``."""
    batched = scalar = 0
    for span in spans:
        if span.iteration is None:
            continue
        if span.name == "NicTimeline.reserve_batch":
            batched += span.units
        elif span.name == "NicTimeline.reserve":
            scalar += 1
    return batched, scalar
