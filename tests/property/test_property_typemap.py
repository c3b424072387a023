"""Property-based tests of the MPI type-map flattener.

These are the invariants every downstream consumer (baseline engine, TEMPI
translation, halo datatypes) relies on:

* blocks never overlap and are maximal (no two adjacent blocks remain);
* the summed block length equals the datatype's size, for any element count;
* every block lies inside ``lb + count * extent`` worth of storage;
* the analytic ``block_count`` used for baseline cost accounting is exact for
  a single element of the strided family and never undercounts;
* the memoised NumPy block list equals the reference type map — the
  generator :meth:`~repro.mpi.datatype.Datatype.layout` merged by
  :func:`~repro.mpi.typemap.merge_blocks` — for every constructor.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.mpi import typemap
from repro.mpi.constructors import (
    Type_create_hindexed,
    Type_create_resized,
    Type_create_struct,
    Type_indexed,
)
from repro.mpi.datatype import Combiner, Datatype, NamedDatatype

from tests.property.test_property_canonicalize import (
    NAMED,
    contiguous_types,
    hvector_types,
    strided_datatypes,
    subarray_types,
    vector_types,
)

#: A zero-size leaf: every block it contributes has length 0.
EMPTY = NamedDatatype("EMPTY", 0)


# --------------------------------------------------------------------------- #
# Strategies: every constructor, nested, dense and non-dense children
# --------------------------------------------------------------------------- #

@st.composite
def indexed_types(draw, children) -> Datatype:
    child = draw(children)
    nblocks = draw(st.integers(min_value=1, max_value=4))
    blocklengths = draw(st.lists(st.integers(1, 4), min_size=nblocks, max_size=nblocks))
    # Unsorted and overlapping displacements keep the type map out of order.
    displacements = draw(st.lists(st.integers(0, 12), min_size=nblocks, max_size=nblocks))
    if draw(st.booleans()):
        return Type_create_hindexed(blocklengths, displacements, child)
    return Type_indexed(blocklengths, displacements, child)


@st.composite
def struct_types(draw, children) -> Datatype:
    nblocks = draw(st.integers(min_value=1, max_value=3))
    datatypes = [draw(children) for _ in range(nblocks)]
    blocklengths = draw(st.lists(st.integers(1, 3), min_size=nblocks, max_size=nblocks))
    displacements = draw(st.lists(st.integers(0, 48), min_size=nblocks, max_size=nblocks))
    return Type_create_struct(blocklengths, displacements, datatypes)


@st.composite
def resized_types(draw, children) -> Datatype:
    child = draw(children)
    lb = draw(st.integers(min_value=0, max_value=8))
    extent = max(1, child.extent) + draw(st.integers(min_value=-1, max_value=8))
    return Type_create_resized(child, lb, max(1, extent))


def all_datatypes(max_leaves: int = 4) -> st.SearchStrategy[Datatype]:
    return st.recursive(
        st.sampled_from(NAMED + (EMPTY,)),
        lambda children: st.one_of(
            contiguous_types(children),
            vector_types(children),
            hvector_types(children.filter(lambda t: t.extent > 0)),
            subarray_types(children),
            indexed_types(children),
            struct_types(children),
            resized_types(children),
        ),
        max_leaves=max_leaves,
    )


def reference_blocks(datatype: Datatype, count: int, base: int = 0) -> list[tuple[int, int]]:
    """The type map of ``count`` elements from the generator ``layout()``."""
    return list(
        typemap.merge_blocks(
            (base + i * datatype.extent + offset, length)
            for i in range(count)
            for offset, length in datatype.layout()
        )
    )


@settings(max_examples=80, deadline=None)
@given(strided_datatypes(), st.integers(min_value=1, max_value=4))
def test_blocks_are_disjoint_and_maximal(datatype, count):
    blocks = list(typemap.flatten_many(datatype, count))
    for (offset_a, length_a), (offset_b, _length_b) in zip(blocks, blocks[1:]):
        # strictly increasing starts, no touching (touching blocks must merge)
        assert offset_a + length_a < offset_b


@settings(max_examples=80, deadline=None)
@given(strided_datatypes(), st.integers(min_value=1, max_value=4))
def test_total_length_equals_size(datatype, count):
    blocks = list(typemap.flatten_many(datatype, count))
    assert sum(length for _, length in blocks) == datatype.size * count


@settings(max_examples=80, deadline=None)
@given(strided_datatypes(), st.integers(min_value=1, max_value=4))
def test_blocks_inside_extent(datatype, count):
    blocks = list(typemap.flatten_many(datatype, count))
    upper_bound = datatype.lb + (count - 1) * datatype.extent + datatype.ub - datatype.lb
    for offset, length in blocks:
        assert offset >= 0
        assert offset + length <= upper_bound


@settings(max_examples=80, deadline=None)
@given(strided_datatypes())
def test_analytic_block_count_matches_flatten_for_one_element(datatype):
    assert datatype.block_count() >= len(list(typemap.flatten(datatype)))


@settings(max_examples=80, deadline=None)
@given(strided_datatypes())
def test_dominant_block_length_is_a_real_block_length(datatype):
    lengths = {length for _, length in typemap.flatten(datatype)}
    assert typemap.dominant_block_length(datatype) in lengths


@settings(max_examples=300, deadline=None)
@given(all_datatypes(), st.integers(min_value=1, max_value=4), st.integers(0, 64))
def test_memoised_blocks_equal_the_reference_type_map(datatype, count, base):
    expected = reference_blocks(datatype, count)
    offsets, lengths = typemap.offsets_and_lengths(datatype, count)
    assert list(zip(offsets.tolist(), lengths.tolist())) == expected
    assert list(typemap.flatten_many(datatype, count, base)) == reference_blocks(
        datatype, count, base
    )
    assert list(typemap.flatten(datatype, base)) == reference_blocks(datatype, 1, base)


@settings(max_examples=200, deadline=None)
@given(all_datatypes())
def test_density_and_histogram_match_the_reference_type_map(datatype):
    one_element = reference_blocks(datatype, 1)
    covered = sum(length for _, length in datatype.layout())
    dense = datatype.size == datatype.extent and covered == datatype.extent
    if datatype.combiner in (Combiner.INDEXED, Combiner.HINDEXED, Combiner.STRUCT):
        # No analytic override: the predicate is read off the memo.
        assert datatype.is_contiguous_bytes == dense
    elif datatype.is_contiguous_bytes:
        assert dense
    assert typemap.block_lengths_histogram(datatype) == dict(
        Counter(length for _, length in one_element)
    )


@settings(max_examples=60, deadline=None)
@given(strided_datatypes(), st.integers(min_value=1, max_value=3))
def test_offsets_and_lengths_agree_with_flatten(datatype, count):
    offsets, lengths = typemap.offsets_and_lengths(datatype, count)
    assert list(zip(offsets.tolist(), lengths.tolist())) == list(
        typemap.flatten_many(datatype, count)
    )
