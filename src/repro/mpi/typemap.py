"""Type-map flattening.

"In the most general sense, a datatype can be considered as a list of
contiguous blocks, where each has an offset and a size" (Sec. 2).  The
baseline datatype engine and the generic fallback path both work on that
representation; this module produces it from a :class:`~repro.mpi.datatype.Datatype`.

Each datatype flattens one element once, with NumPy, into its merged block
list (:meth:`~repro.mpi.datatype.Datatype.blocks`), which stays on the type
as read-only arrays until ``Free``.  The functions here are views over that
memo:

* :func:`offsets_and_lengths` — block offsets and lengths as arrays for
  ``count`` elements placed ``extent`` bytes apart (the *incount* of
  ``MPI_Pack`` and friends);
* :func:`flatten` / :func:`flatten_many` — the same blocks as an iterator of
  Python ``(offset, length)`` pairs, shifted by a base offset.

Merging is performed wherever consecutive blocks touch, so the result is the
list of *maximal* contiguous runs — the number of ``cudaMemcpyAsync`` calls
the baseline engine issues, and the quantity whose growth explains the
baseline's collapse in Figs. 8 and 11.  :func:`merge_blocks` over
:meth:`~repro.mpi.datatype.Datatype.layout` is the reference definition the
memo must equal.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.mpi.datatype import Datatype, merge_block_arrays
from repro.mpi.errors import MpiTypeError


def merge_blocks(blocks: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Merge blocks that touch (``offset + length == next offset``).

    The input must be in type-map order; MPI type maps produced by the
    constructors in this package are monotonically non-decreasing in offset
    for the strided types the paper considers.
    """
    current_offset: int | None = None
    current_length = 0
    for offset, length in blocks:
        if length < 0 or offset < 0:
            raise MpiTypeError("type map blocks must have non-negative offset and length")
        if length == 0:
            continue
        if current_offset is None:
            current_offset, current_length = offset, length
        elif offset == current_offset + current_length:
            current_length += length
        else:
            yield (current_offset, current_length)
            current_offset, current_length = offset, length
    if current_offset is not None:
        yield (current_offset, current_length)


def _pairs(
    offsets: np.ndarray, lengths: np.ndarray, base: int
) -> Iterator[tuple[int, int]]:
    """Blocks as Python ``(offset, length)`` pairs, shifted by ``base``."""
    if base:
        offsets = offsets + base
        if offsets.size and offsets.min() < 0:
            raise MpiTypeError("type map blocks must have non-negative offset and length")
    return zip(offsets.tolist(), lengths.tolist())


def flatten(datatype: Datatype, base: int = 0) -> Iterator[tuple[int, int]]:
    """Merged ``(offset, length)`` blocks of one element of ``datatype``."""
    return _pairs(*datatype.blocks(), base)


def flatten_many(
    datatype: Datatype, count: int, base: int = 0
) -> Iterator[tuple[int, int]]:
    """Merged blocks of ``count`` consecutive elements of ``datatype``.

    Successive elements are placed ``datatype.extent`` bytes apart, as MPI
    requires for count arguments.
    """
    return _pairs(*offsets_and_lengths(datatype, count), base)


def block_count(datatype: Datatype, count: int = 1) -> int:
    """Number of maximal contiguous blocks in ``count`` elements.

    Uses the datatype's analytic :meth:`~repro.mpi.datatype.Datatype.block_count`
    for one element; consecutive elements only merge when the type is fully
    dense, in which case the answer is 1.
    """
    if count <= 0:
        raise MpiTypeError(f"count must be positive, got {count}")
    per_element = datatype.block_count()
    if datatype.is_contiguous_bytes:
        return 1
    return per_element * count


def packed_size(datatype: Datatype, count: int = 1) -> int:
    """Bytes produced by packing ``count`` elements (``MPI_Pack_size``)."""
    if count <= 0:
        raise MpiTypeError(f"count must be positive, got {count}")
    return datatype.size * count


def block_lengths_histogram(datatype: Datatype) -> dict[int, int]:
    """Histogram of contiguous-block lengths for one element.

    Useful for the performance model, which interpolates over the contiguous
    block length of a datatype (Sec. 6.3).
    """
    lengths, counts = np.unique(datatype.blocks()[1], return_counts=True)
    return dict(zip(lengths.tolist(), counts.tolist()))


def dominant_block_length(datatype: Datatype) -> int:
    """The most common contiguous-block length of one element.

    For the strided types TEMPI targets this is simply *the* block length;
    for irregular types it is the mode, which is what the performance model
    keys its 2-D interpolation on.
    """
    histogram = block_lengths_histogram(datatype)
    if not histogram:
        return 0
    best_length = max(histogram.items(), key=lambda item: (item[1], item[0]))
    return best_length[0]


def offsets_and_lengths(datatype: Datatype, count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Block offsets and lengths as NumPy arrays (for vectorised block copies).

    For one element these are the datatype's memoised, read-only arrays; for
    more, the element's blocks are tiled at ``extent`` and merged again
    across element boundaries.
    """
    if count <= 0:
        raise MpiTypeError(f"count must be positive, got {count}")
    offsets, lengths = datatype.blocks()
    if count == 1:
        return offsets, lengths
    starts = np.arange(count, dtype=np.int64) * datatype.extent
    return merge_block_arrays(
        (starts[:, None] + offsets[None, :]).reshape(-1), np.tile(lengths, count)
    )
