"""Functional pack/unpack "kernels".

On the GPU, TEMPI's kernels gather the contiguous runs of a strided object
into a contiguous buffer (pack) or scatter a contiguous buffer back into the
strided object (unpack).  Here the same data movement is performed with NumPy
stride tricks: the strided object is exposed as a zero-copy view of the
underlying byte array (``as_strided``), so packing is a single vectorised
copy rather than a Python-level loop — the idiomatic way to express a gather
in NumPy, and fast enough that benchmarks measuring *virtual* time are not
bottlenecked by *wall* time.

The functions below are deliberately free of any timing logic; durations are
charged by :class:`repro.gpu.runtime.CudaRuntime`, which calls them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.gpu.errors import CudaInvalidValue


def required_extent(start: int, counts: Sequence[int], strides: Sequence[int]) -> int:
    """Bytes of the underlying allocation touched by a strided object.

    The object's last byte lives at
    ``start + sum((counts[i] - 1) * strides[i]) + counts[0] * strides[0] - ...``;
    because dimension 0 is the contiguous run (stride 1), the formula below is
    the usual max-offset computation for positive strides.
    """
    if len(counts) != len(strides):
        raise CudaInvalidValue("counts and strides must have the same length")
    if not counts:
        return start
    last = start
    for count, stride in zip(counts, strides):
        if count <= 0:
            raise CudaInvalidValue(f"counts must be positive, got {count}")
        if stride <= 0:
            raise CudaInvalidValue(f"strides must be positive, got {stride}")
        last += (count - 1) * stride
    return last + 1


def packed_size(counts: Sequence[int]) -> int:
    """Number of payload bytes in one strided object (product of counts)."""
    size = 1
    for count in counts:
        size *= int(count)
    return size


def _strided_view(
    memory: np.ndarray,
    start: int,
    counts: Sequence[int],
    strides: Sequence[int],
) -> np.ndarray:
    """A read/write view of ``memory`` shaped as the strided object.

    Dimension order follows the :class:`~repro.tempi.strided_block.StridedBlock`
    convention: index 0 is the innermost (contiguous, stride 1) dimension.
    The returned array has the *outermost* dimension first so ``ravel()``
    produces the packed byte order.
    """
    if memory.dtype != np.uint8 or memory.ndim != 1:
        raise CudaInvalidValue("kernel memory must be a 1-D uint8 array")
    end = required_extent(start, counts, strides)
    if start < 0 or end > memory.nbytes:
        raise CudaInvalidValue(
            f"strided object [{start}, {end}) escapes allocation of {memory.nbytes} bytes"
        )
    shape = tuple(int(c) for c in reversed(counts))
    byte_strides = tuple(int(s) for s in reversed(strides))
    return as_strided(memory[start:], shape=shape, strides=byte_strides, writeable=True)


def pack_strided(
    src: np.ndarray,
    dst: np.ndarray,
    start: int,
    counts: Sequence[int],
    strides: Sequence[int],
    dst_offset: int = 0,
) -> int:
    """Gather one strided object from ``src`` into ``dst[dst_offset:]``.

    Returns the number of bytes written.
    """
    view = _strided_view(src, start, counts, strides)
    size = view.size
    if dst_offset < 0 or dst_offset + size > dst.nbytes:
        raise CudaInvalidValue(
            f"packed object of {size} bytes at offset {dst_offset} escapes "
            f"destination of {dst.nbytes} bytes"
        )
    # Write through a shaped view of the (contiguous) destination slice:
    # ``view.reshape(-1)`` would first copy the strided view into a temporary.
    dst[dst_offset : dst_offset + size].reshape(view.shape)[...] = view
    return size


def unpack_strided(
    src: np.ndarray,
    dst: np.ndarray,
    start: int,
    counts: Sequence[int],
    strides: Sequence[int],
    src_offset: int = 0,
) -> int:
    """Scatter ``src[src_offset:]`` into one strided object inside ``dst``.

    Returns the number of bytes read from ``src``.
    """
    view = _strided_view(dst, start, counts, strides)
    size = view.size
    if src_offset < 0 or src_offset + size > src.nbytes:
        raise CudaInvalidValue(
            f"packed object of {size} bytes at offset {src_offset} escapes "
            f"source of {src.nbytes} bytes"
        )
    view[...] = src[src_offset : src_offset + size].reshape(view.shape)
    return size


def pack_strided_many(
    src: np.ndarray,
    dst: np.ndarray,
    start: int,
    counts: Sequence[int],
    strides: Sequence[int],
    count: int,
    object_extent: int,
    dst_offset: int = 0,
) -> int:
    """Pack ``count`` repetitions of a strided object (MPI's *incount* argument).

    Successive objects begin ``object_extent`` bytes apart in ``src`` and are
    packed back to back in ``dst`` — exactly how TEMPI's kernels apply the
    whole grid to each object in turn (Sec. 3.3).
    """
    if count <= 0:
        raise CudaInvalidValue(f"count must be positive, got {count}")
    written = 0
    for i in range(count):
        written += pack_strided(
            src,
            dst,
            start + i * object_extent,
            counts,
            strides,
            dst_offset + written,
        )
    return written


def unpack_strided_many(
    src: np.ndarray,
    dst: np.ndarray,
    start: int,
    counts: Sequence[int],
    strides: Sequence[int],
    count: int,
    object_extent: int,
    src_offset: int = 0,
) -> int:
    """Unpack ``count`` back-to-back packed objects into strided storage."""
    if count <= 0:
        raise CudaInvalidValue(f"count must be positive, got {count}")
    consumed = 0
    for i in range(count):
        consumed += unpack_strided(
            src,
            dst,
            start + i * object_extent,
            counts,
            strides,
            src_offset + consumed,
        )
    return consumed


def copy_block_list(
    src: np.ndarray,
    dst: np.ndarray,
    blocks: Sequence[tuple[int, int]],
    *,
    gather: bool = True,
) -> int:
    """Copy an explicit ``(offset, length)`` block list.

    This is the generic representation prior work (and the Spectrum-like
    baseline engine) uses: when ``gather`` is True the blocks are read from
    ``src`` at their offsets and written densely into ``dst``; when False the
    dense ``src`` is scattered into ``dst`` at the block offsets.
    """
    cursor = 0
    for offset, length in blocks:
        if offset < 0 or length < 0:
            raise CudaInvalidValue("block offsets and lengths must be non-negative")
        if gather:
            if offset + length > src.nbytes or cursor + length > dst.nbytes:
                raise CudaInvalidValue("block list escapes its buffers")
            dst[cursor : cursor + length] = src[offset : offset + length]
        else:
            if offset + length > dst.nbytes or cursor + length > src.nbytes:
                raise CudaInvalidValue("block list escapes its buffers")
            dst[offset : offset + length] = src[cursor : cursor + length]
        cursor += length
    return cursor
