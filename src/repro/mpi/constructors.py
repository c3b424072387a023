"""Derived-datatype constructors.

These are the constructors the paper exercises (Sec. 2): ``contiguous``,
``vector``, ``hvector`` and ``subarray`` compose to describe the strided 3-D
objects of stencil codes, while ``indexed`` / ``hindexed`` / ``struct`` are
provided because real applications (and the paper's future-work section) use
them — TEMPI falls back to the generic block-list path for those.

Conventions
-----------
* ``Type_vector`` strides are in multiples of the old type's *extent*;
  ``Type_create_hvector`` and the displacement-taking constructors use bytes.
* ``Type_create_subarray`` follows the MPI standard: with ``ORDER_C`` the
  *last* listed dimension varies fastest; with ``ORDER_FORTRAN`` the first
  does.  (The paper's prose lists dimensions fastest-first; the workload
  definitions in :mod:`repro.bench.workloads` translate accordingly.)
* Only positive strides and non-negative displacements are supported, which
  covers every datatype in the evaluation.
"""

from __future__ import annotations

from functools import reduce
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from repro.mpi.datatype import (
    Combiner,
    Datatype,
    ORDER_C,
    ORDER_FORTRAN,
    Placement,
    check_datatype,
    check_order,
    check_positive_count,
    sequence_of_ints,
)
from repro.mpi.errors import MpiTypeError


def _product(values: Sequence[int]) -> int:
    return reduce(mul, values, 1)


def _origin() -> np.ndarray:
    """The single row at offset 0."""
    return np.zeros(1, dtype=np.int64)


class DerivedDatatype(Datatype):
    """Shared machinery: the type map of a derived type is the concatenation
    of its children's type maps at their placement offsets."""

    def layout(self) -> Iterator[tuple[int, int]]:
        for offset, child in self.child_layout():
            for child_offset, length in child.layout():
                yield (offset + child_offset, length)


class ContiguousDatatype(DerivedDatatype):
    """``count`` repetitions of ``oldtype`` at successive extents."""

    def __init__(self, count: int, oldtype: Datatype) -> None:
        self.count = check_positive_count(count)
        self.oldtype = check_datatype(oldtype)
        super().__init__(
            size=self.count * oldtype.size,
            extent=self.count * oldtype.extent,
            combiner=Combiner.CONTIGUOUS,
            children=(oldtype,),
        )

    def child_layout(self) -> Iterator[tuple[int, Datatype]]:
        for i in range(self.count):
            yield (i * self.oldtype.extent, self.oldtype)

    def placements(self) -> tuple[Placement, ...]:
        return (Placement(_origin(), self.count, self.oldtype.extent, self.oldtype),)

    def block_count(self) -> int:
        if self.oldtype.is_contiguous_bytes:
            return 1
        return self.count * self.oldtype.block_count()

    def _dense(self) -> bool:
        return self.oldtype.is_contiguous_bytes

    def _envelope(self) -> dict:
        return {"count": self.count, "oldtype": self.oldtype}


class VectorDatatype(DerivedDatatype):
    """``count`` blocks of ``blocklength`` oldtypes, ``stride`` oldtype-extents apart."""

    def __init__(self, count: int, blocklength: int, stride: int, oldtype: Datatype) -> None:
        self.count = check_positive_count(count)
        self.blocklength = check_positive_count(blocklength, "blocklength")
        if stride <= 0:
            raise MpiTypeError(f"only positive vector strides are supported, got {stride}")
        if self.count > 1 and stride < blocklength:
            raise MpiTypeError(
                f"vector stride {stride} smaller than blocklength {blocklength} would overlap"
            )
        self.stride = int(stride)
        self.oldtype = check_datatype(oldtype)
        extent = ((self.count - 1) * self.stride + self.blocklength) * oldtype.extent
        super().__init__(
            size=self.count * self.blocklength * oldtype.size,
            extent=extent,
            combiner=Combiner.VECTOR,
            children=(oldtype,),
        )

    @property
    def stride_bytes(self) -> int:
        """Stride between block starts, in bytes."""
        return self.stride * self.oldtype.extent

    def child_layout(self) -> Iterator[tuple[int, Datatype]]:
        for i in range(self.count):
            base = i * self.stride_bytes
            for j in range(self.blocklength):
                yield (base + j * self.oldtype.extent, self.oldtype)

    def placements(self) -> tuple[Placement, ...]:
        rows = np.arange(self.count, dtype=np.int64) * self.stride_bytes
        return (Placement(rows, self.blocklength, self.oldtype.extent, self.oldtype),)

    def block_count(self) -> int:
        if self.oldtype.is_contiguous_bytes:
            return 1 if self.stride == self.blocklength else self.count
        return self.count * self.blocklength * self.oldtype.block_count()

    def _dense(self) -> bool:
        return self.oldtype.is_contiguous_bytes and self.stride == self.blocklength

    def _envelope(self) -> dict:
        return {
            "count": self.count,
            "blocklength": self.blocklength,
            "stride": self.stride,
            "oldtype": self.oldtype,
        }


class HvectorDatatype(DerivedDatatype):
    """Like :class:`VectorDatatype` but the stride is given in bytes."""

    def __init__(self, count: int, blocklength: int, stride_bytes: int, oldtype: Datatype) -> None:
        self.count = check_positive_count(count)
        self.blocklength = check_positive_count(blocklength, "blocklength")
        self.oldtype = check_datatype(oldtype)
        if stride_bytes <= 0:
            raise MpiTypeError(f"only positive hvector strides are supported, got {stride_bytes}")
        if self.count > 1 and stride_bytes < blocklength * oldtype.extent:
            raise MpiTypeError(
                f"hvector stride {stride_bytes} B smaller than one block "
                f"({blocklength * oldtype.extent} B) would overlap"
            )
        self.stride_bytes = int(stride_bytes)
        extent = (self.count - 1) * self.stride_bytes + self.blocklength * oldtype.extent
        super().__init__(
            size=self.count * self.blocklength * oldtype.size,
            extent=extent,
            combiner=Combiner.HVECTOR,
            children=(oldtype,),
        )

    def child_layout(self) -> Iterator[tuple[int, Datatype]]:
        for i in range(self.count):
            base = i * self.stride_bytes
            for j in range(self.blocklength):
                yield (base + j * self.oldtype.extent, self.oldtype)

    def placements(self) -> tuple[Placement, ...]:
        rows = np.arange(self.count, dtype=np.int64) * self.stride_bytes
        return (Placement(rows, self.blocklength, self.oldtype.extent, self.oldtype),)

    def block_count(self) -> int:
        if self.oldtype.is_contiguous_bytes:
            one_block = self.blocklength * self.oldtype.extent
            return 1 if self.stride_bytes == one_block else self.count
        return self.count * self.blocklength * self.oldtype.block_count()

    def _dense(self) -> bool:
        return (
            self.oldtype.is_contiguous_bytes
            and self.stride_bytes == self.blocklength * self.oldtype.extent
        )

    def _envelope(self) -> dict:
        return {
            "count": self.count,
            "blocklength": self.blocklength,
            "stride_bytes": self.stride_bytes,
            "oldtype": self.oldtype,
        }


class SubarrayDatatype(DerivedDatatype):
    """An n-dimensional subarray of an n-dimensional array of ``oldtype``."""

    def __init__(
        self,
        sizes: Sequence[int],
        subsizes: Sequence[int],
        starts: Sequence[int],
        order: int,
        oldtype: Datatype,
    ) -> None:
        self.sizes = sequence_of_ints(sizes, "sizes")
        self.subsizes = sequence_of_ints(subsizes, "subsizes")
        self.starts = sequence_of_ints(starts, "starts")
        self.order = check_order(order)
        self.oldtype = check_datatype(oldtype)
        ndims = len(self.sizes)
        if ndims == 0:
            raise MpiTypeError("subarray needs at least one dimension")
        if len(self.subsizes) != ndims or len(self.starts) != ndims:
            raise MpiTypeError("sizes, subsizes and starts must have the same length")
        for d in range(ndims):
            if self.sizes[d] <= 0 or self.subsizes[d] <= 0:
                raise MpiTypeError(f"sizes/subsizes must be positive in dimension {d}")
            if self.starts[d] < 0 or self.starts[d] + self.subsizes[d] > self.sizes[d]:
                raise MpiTypeError(
                    f"subarray dimension {d}: start {self.starts[d]} + subsize "
                    f"{self.subsizes[d]} exceeds size {self.sizes[d]}"
                )
        self.ndims = ndims
        super().__init__(
            size=_product(self.subsizes) * oldtype.size,
            extent=_product(self.sizes) * oldtype.extent,
            combiner=Combiner.SUBARRAY,
            children=(oldtype,),
        )

    # Dimension bookkeeping: ``fastest_first`` lists dimension indices from the
    # fastest-varying to the slowest-varying one, per the storage order.
    @property
    def fastest_first(self) -> tuple[int, ...]:
        dims = range(self.ndims)
        return tuple(reversed(dims)) if self.order == ORDER_C else tuple(dims)

    def dimension_stride_elements(self, dim: int) -> int:
        """Elements of ``oldtype`` between successive indices of ``dim``."""
        stride = 1
        for other in self.fastest_first:
            if other == dim:
                break
            stride *= self.sizes[other]
        return stride

    def child_layout(self) -> Iterator[tuple[int, Datatype]]:
        old_extent = self.oldtype.extent
        order = list(reversed(self.fastest_first))  # slowest first for iteration

        def recurse(level: int, element_offset: int) -> Iterator[tuple[int, Datatype]]:
            if level == len(order):
                yield (element_offset * old_extent, self.oldtype)
                return
            dim = order[level]
            stride = self.dimension_stride_elements(dim)
            for idx in range(self.subsizes[dim]):
                offset = element_offset + (self.starts[dim] + idx) * stride
                yield from recurse(level + 1, offset)

        yield from recurse(0, 0)

    def placements(self) -> tuple[Placement, ...]:
        # One row per index of every dimension but the fastest, slowest
        # first; the fastest dimension (stride one element) is the run.
        *outer, fastest = reversed(self.fastest_first)
        rows = _origin()
        for dim in outer:
            first = self.starts[dim]
            indices = np.arange(first, first + self.subsizes[dim], dtype=np.int64)
            stride = self.dimension_stride_elements(dim)
            rows = (rows[:, None] + indices[None, :] * stride).reshape(-1)
        rows = (rows + self.starts[fastest]) * self.oldtype.extent
        return (
            Placement(rows, self.subsizes[fastest], self.oldtype.extent, self.oldtype),
        )

    def block_count(self) -> int:
        if not self.oldtype.is_contiguous_bytes:
            return _product(self.subsizes) * self.oldtype.block_count()
        # Count maximal contiguous runs: fastest dimensions that are fully
        # covered merge into the next slower dimension's run.
        remaining = list(self.fastest_first)
        while remaining:
            dim = remaining[0]
            if self.subsizes[dim] == self.sizes[dim] and self.starts[dim] == 0:
                remaining.pop(0)
            else:
                break
        if not remaining:
            return 1
        # The first remaining dimension contributes one run per index of the
        # *slower* dimensions only (its own subsize lies within each run).
        slower = remaining[1:]
        return _product([self.subsizes[d] for d in slower]) if slower else 1

    def _dense(self) -> bool:
        return (
            self.oldtype.is_contiguous_bytes
            and all(
                self.subsizes[d] == self.sizes[d] and self.starts[d] == 0
                for d in range(self.ndims)
            )
        )

    def _envelope(self) -> dict:
        return {
            "sizes": self.sizes,
            "subsizes": self.subsizes,
            "starts": self.starts,
            "order": self.order,
            "oldtype": self.oldtype,
        }


class IndexedDatatype(DerivedDatatype):
    """Blocks of varying lengths at displacements given in oldtype extents."""

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements: Sequence[int],
        oldtype: Datatype,
        *,
        displacements_in_bytes: bool = False,
    ) -> None:
        self.blocklengths = sequence_of_ints(blocklengths, "blocklengths")
        self.displacements = sequence_of_ints(displacements, "displacements")
        if len(self.blocklengths) != len(self.displacements):
            raise MpiTypeError("blocklengths and displacements must have the same length")
        if not self.blocklengths:
            raise MpiTypeError("indexed type needs at least one block")
        if any(b <= 0 for b in self.blocklengths):
            raise MpiTypeError("blocklengths must be positive")
        if any(d < 0 for d in self.displacements):
            raise MpiTypeError("only non-negative displacements are supported")
        self.oldtype = check_datatype(oldtype)
        self.displacements_in_bytes = displacements_in_bytes
        unit = 1 if displacements_in_bytes else oldtype.extent
        byte_displacements = [d * unit for d in self.displacements]
        ub = max(
            d + b * oldtype.extent for d, b in zip(byte_displacements, self.blocklengths)
        )
        lb = min(byte_displacements)
        combiner = Combiner.HINDEXED if displacements_in_bytes else Combiner.INDEXED
        super().__init__(
            size=sum(self.blocklengths) * oldtype.size,
            extent=ub - lb,
            combiner=combiner,
            children=(oldtype,),
            lb=lb,
        )
        self._byte_displacements = byte_displacements

    def child_layout(self) -> Iterator[tuple[int, Datatype]]:
        for displacement, blocklength in zip(self._byte_displacements, self.blocklengths):
            for j in range(blocklength):
                yield (displacement + j * self.oldtype.extent, self.oldtype)

    def placements(self) -> tuple[Placement, ...]:
        rows = np.array(self._byte_displacements, dtype=np.int64)
        inner = np.array(self.blocklengths, dtype=np.int64)
        return (Placement(rows, inner, self.oldtype.extent, self.oldtype),)

    def block_count(self) -> int:
        if self.oldtype.is_contiguous_bytes:
            return len(self.blocklengths)
        return sum(self.blocklengths) * self.oldtype.block_count()

    def _envelope(self) -> dict:
        return {
            "blocklengths": self.blocklengths,
            "displacements": self.displacements,
            "in_bytes": self.displacements_in_bytes,
            "oldtype": self.oldtype,
        }


class StructDatatype(DerivedDatatype):
    """The general constructor: per-block types and byte displacements."""

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements: Sequence[int],
        datatypes: Sequence[Datatype],
    ) -> None:
        self.blocklengths = sequence_of_ints(blocklengths, "blocklengths")
        self.displacements = sequence_of_ints(displacements, "displacements")
        if not (len(self.blocklengths) == len(self.displacements) == len(datatypes)):
            raise MpiTypeError("struct arguments must have equal lengths")
        if not self.blocklengths:
            raise MpiTypeError("struct type needs at least one block")
        if any(b <= 0 for b in self.blocklengths):
            raise MpiTypeError("blocklengths must be positive")
        if any(d < 0 for d in self.displacements):
            raise MpiTypeError("only non-negative displacements are supported")
        self.datatypes = tuple(check_datatype(t) for t in datatypes)
        ub = max(
            d + b * t.extent
            for d, b, t in zip(self.displacements, self.blocklengths, self.datatypes)
        )
        lb = min(self.displacements)
        super().__init__(
            size=sum(b * t.size for b, t in zip(self.blocklengths, self.datatypes)),
            extent=ub - lb,
            combiner=Combiner.STRUCT,
            children=self.datatypes,
            lb=lb,
        )

    def child_layout(self) -> Iterator[tuple[int, Datatype]]:
        for displacement, blocklength, datatype in zip(
            self.displacements, self.blocklengths, self.datatypes
        ):
            for j in range(blocklength):
                yield (displacement + j * datatype.extent, datatype)

    def placements(self) -> tuple[Placement, ...]:
        return tuple(
            Placement(
                np.full(1, displacement, dtype=np.int64), blocklength, datatype.extent, datatype
            )
            for displacement, blocklength, datatype in zip(
                self.displacements, self.blocklengths, self.datatypes
            )
        )

    def block_count(self) -> int:
        total = 0
        for blocklength, datatype in zip(self.blocklengths, self.datatypes):
            if datatype.is_contiguous_bytes:
                total += 1
            else:
                total += blocklength * datatype.block_count()
        return total

    def _envelope(self) -> dict:
        return {
            "blocklengths": self.blocklengths,
            "displacements": self.displacements,
            "datatypes": self.datatypes,
        }


class ResizedDatatype(DerivedDatatype):
    """A datatype with its lower bound and extent overridden.

    ``MPI_Type_create_resized`` does not change which bytes a single element
    describes — only how far apart consecutive elements are placed, which is
    what lets e.g. a strided plane type be tiled at the allocation's plane
    pitch inside an enclosing subarray.
    """

    def __init__(self, oldtype: Datatype, lb: int, extent: int) -> None:
        self.oldtype = check_datatype(oldtype)
        if extent <= 0:
            raise MpiTypeError(f"resized extent must be positive, got {extent}")
        if lb < 0:
            raise MpiTypeError("only non-negative lower bounds are supported")
        super().__init__(
            size=oldtype.size,
            extent=extent,
            combiner=Combiner.RESIZED,
            children=(oldtype,),
            lb=lb,
        )

    def child_layout(self) -> Iterator[tuple[int, Datatype]]:
        yield (0, self.oldtype)

    def placements(self) -> tuple[Placement, ...]:
        return (Placement(_origin(), 1, self.oldtype.extent, self.oldtype),)

    def block_count(self) -> int:
        return self.oldtype.block_count()

    def _dense(self) -> bool:
        return self.oldtype.is_contiguous_bytes and self.extent == self.oldtype.extent

    def _envelope(self) -> dict:
        return {"lb": self.lb, "extent": self.extent, "oldtype": self.oldtype}


# --------------------------------------------------------------------------- #
# MPI-style constructor functions
# --------------------------------------------------------------------------- #

def Type_contiguous(count: int, oldtype: Datatype) -> ContiguousDatatype:
    """``MPI_Type_contiguous``: ``count`` contiguous repetitions of ``oldtype``."""
    return ContiguousDatatype(count, oldtype)


def Type_vector(count: int, blocklength: int, stride: int, oldtype: Datatype) -> VectorDatatype:
    """``MPI_Type_vector``: equally spaced blocks; stride in oldtype extents."""
    return VectorDatatype(count, blocklength, stride, oldtype)


def Type_create_hvector(
    count: int, blocklength: int, stride_bytes: int, oldtype: Datatype
) -> HvectorDatatype:
    """``MPI_Type_create_hvector``: like vector, stride in bytes."""
    return HvectorDatatype(count, blocklength, stride_bytes, oldtype)


def Type_create_subarray(
    sizes: Sequence[int],
    subsizes: Sequence[int],
    starts: Sequence[int],
    order: int,
    oldtype: Datatype,
) -> SubarrayDatatype:
    """``MPI_Type_create_subarray``: an n-D subarray of an n-D array."""
    return SubarrayDatatype(sizes, subsizes, starts, order, oldtype)


def Type_indexed(
    blocklengths: Sequence[int], displacements: Sequence[int], oldtype: Datatype
) -> IndexedDatatype:
    """``MPI_Type_indexed``: blocks at displacements in oldtype extents."""
    return IndexedDatatype(blocklengths, displacements, oldtype)


def Type_create_hindexed(
    blocklengths: Sequence[int], displacements: Sequence[int], oldtype: Datatype
) -> IndexedDatatype:
    """``MPI_Type_create_hindexed``: blocks at byte displacements."""
    return IndexedDatatype(blocklengths, displacements, oldtype, displacements_in_bytes=True)


def Type_create_struct(
    blocklengths: Sequence[int],
    displacements: Sequence[int],
    datatypes: Sequence[Datatype],
) -> StructDatatype:
    """``MPI_Type_create_struct``: the fully general constructor."""
    return StructDatatype(blocklengths, displacements, datatypes)


def Type_create_resized(oldtype: Datatype, lb: int, extent: int) -> ResizedDatatype:
    """``MPI_Type_create_resized``: override a type's lower bound and extent."""
    return ResizedDatatype(oldtype, lb, extent)
