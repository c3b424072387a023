"""Tests for the functional strided pack/unpack kernels."""

import numpy as np
import pytest

from repro.gpu import kernels
from repro.gpu.errors import CudaInvalidValue


def make_memory(nbytes: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


class TestRequiredExtent:
    def test_single_dense_run(self):
        assert kernels.required_extent(0, [16], [1]) == 16

    def test_two_dimensional(self):
        # 4 rows of 8 bytes, 32 bytes apart, starting at byte 3.
        assert kernels.required_extent(3, [8, 4], [1, 32]) == 3 + 3 * 32 + 8

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(CudaInvalidValue):
            kernels.required_extent(0, [8, 4], [1])

    def test_zero_count_rejected(self):
        with pytest.raises(CudaInvalidValue):
            kernels.required_extent(0, [0], [1])

    def test_zero_stride_rejected(self):
        with pytest.raises(CudaInvalidValue):
            kernels.required_extent(0, [2, 2], [1, 0])

    def test_packed_size_is_product(self):
        assert kernels.packed_size([8, 4, 3]) == 96


class TestPackUnpack2D:
    def test_pack_gathers_rows(self):
        src = make_memory(256)
        dst = np.zeros(32, dtype=np.uint8)
        written = kernels.pack_strided(src, dst, 0, [8, 4], [1, 64])
        assert written == 32
        expected = np.concatenate([src[i * 64 : i * 64 + 8] for i in range(4)])
        assert np.array_equal(dst, expected)

    def test_pack_honours_start_offset(self):
        src = make_memory(256)
        dst = np.zeros(16, dtype=np.uint8)
        kernels.pack_strided(src, dst, 10, [8, 2], [1, 64])
        expected = np.concatenate([src[10:18], src[74:82]])
        assert np.array_equal(dst, expected)

    def test_unpack_is_inverse_of_pack(self):
        original = make_memory(512, seed=1)
        packed = np.zeros(64, dtype=np.uint8)
        kernels.pack_strided(original, packed, 4, [16, 4], [1, 128])
        scattered = np.zeros_like(original)
        kernels.unpack_strided(packed, scattered, 4, [16, 4], [1, 128])
        repacked = np.zeros(64, dtype=np.uint8)
        kernels.pack_strided(scattered, repacked, 4, [16, 4], [1, 128])
        assert np.array_equal(packed, repacked)

    def test_unpack_leaves_other_bytes_untouched(self):
        dst = np.zeros(256, dtype=np.uint8)
        packed = np.full(32, 9, dtype=np.uint8)
        kernels.unpack_strided(packed, dst, 0, [8, 4], [1, 64])
        touched = np.zeros(256, dtype=bool)
        for i in range(4):
            touched[i * 64 : i * 64 + 8] = True
        assert (dst[touched] == 9).all()
        assert not dst[~touched].any()

    def test_pack_out_of_bounds_rejected(self):
        src = make_memory(64)
        dst = np.zeros(64, dtype=np.uint8)
        with pytest.raises(CudaInvalidValue):
            kernels.pack_strided(src, dst, 0, [8, 4], [1, 64])  # needs 8 + 3*64

    def test_pack_destination_too_small_rejected(self):
        src = make_memory(256)
        dst = np.zeros(16, dtype=np.uint8)
        with pytest.raises(CudaInvalidValue):
            kernels.pack_strided(src, dst, 0, [8, 4], [1, 64])

    def test_requires_uint8_1d(self):
        src = make_memory(64).astype(np.uint16)
        with pytest.raises(CudaInvalidValue):
            kernels.pack_strided(src, np.zeros(8, np.uint8), 0, [8], [1])


class TestPackUnpack3D:
    def test_pack_3d_matches_manual_gather(self):
        src = make_memory(4096, seed=2)
        counts = [4, 3, 2]      # 4-byte runs, 3 rows, 2 planes
        strides = [1, 16, 512]
        dst = np.zeros(24, dtype=np.uint8)
        kernels.pack_strided(src, dst, 0, counts, strides)
        expected = []
        for plane in range(2):
            for row in range(3):
                start = plane * 512 + row * 16
                expected.append(src[start : start + 4])
        assert np.array_equal(dst, np.concatenate(expected))

    def test_roundtrip_3d(self):
        src = make_memory(4096, seed=3)
        counts, strides = [8, 4, 4], [1, 32, 256]
        packed = np.zeros(128, dtype=np.uint8)
        kernels.pack_strided(src, packed, 16, counts, strides)
        dst = np.zeros_like(src)
        kernels.unpack_strided(packed, dst, 16, counts, strides)
        repacked = np.zeros(128, dtype=np.uint8)
        kernels.pack_strided(dst, repacked, 16, counts, strides)
        assert np.array_equal(packed, repacked)


class TestManyObjects:
    def test_pack_many_respects_object_extent(self):
        src = make_memory(1024, seed=4)
        counts, strides = [8, 2], [1, 64]
        extent = 200
        dst = np.zeros(3 * 16, dtype=np.uint8)
        written = kernels.pack_strided_many(src, dst, 0, counts, strides, 3, extent)
        assert written == 48
        expected = []
        for obj in range(3):
            for row in range(2):
                start = obj * extent + row * 64
                expected.append(src[start : start + 8])
        assert np.array_equal(dst, np.concatenate(expected))

    def test_unpack_many_roundtrip(self):
        src = make_memory(1024, seed=5)
        counts, strides = [4, 4], [1, 32]
        packed = np.zeros(2 * 16, dtype=np.uint8)
        kernels.pack_strided_many(src, packed, 0, counts, strides, 2, 256)
        dst = np.zeros_like(src)
        kernels.unpack_strided_many(packed, dst, 0, counts, strides, 2, 256)
        repacked = np.zeros_like(packed)
        kernels.pack_strided_many(dst, repacked, 0, counts, strides, 2, 256)
        assert np.array_equal(packed, repacked)

    def test_zero_count_rejected(self):
        src = make_memory(64)
        with pytest.raises(CudaInvalidValue):
            kernels.pack_strided_many(src, np.zeros(8, np.uint8), 0, [8], [1], 0, 8)


class TestPackMatchesReshapeCopy:
    """The in-place write equals the old ``dst[a:b] = view.reshape(-1)`` copy."""

    @staticmethod
    def random_object(rng):
        ndims = int(rng.integers(1, 4))
        counts = [int(c) for c in rng.integers(1, 7, size=ndims)]
        strides = [1]
        for d in range(1, ndims):
            strides.append(counts[d - 1] * strides[d - 1] + int(rng.integers(0, 9)))
        return int(rng.integers(0, 16)), counts, strides

    def test_random_counts_and_strides(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            start, counts, strides = self.random_object(rng)
            src = make_memory(kernels.required_extent(start, counts, strides) + 8, seed=1)
            size = kernels.packed_size(counts)
            offset = int(rng.integers(0, 8))
            view = np.lib.stride_tricks.as_strided(
                src[start:], shape=tuple(reversed(counts)), strides=tuple(reversed(strides))
            )
            expected = np.full(offset + size + 4, 0xAB, dtype=np.uint8)
            expected[offset : offset + size] = view.reshape(-1)
            dst = np.full_like(expected, 0xAB)
            assert kernels.pack_strided(src, dst, start, counts, strides, offset) == size
            assert np.array_equal(dst, expected)

    def test_random_many(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            start, counts, strides = self.random_object(rng)
            count = int(rng.integers(1, 4))
            extent = kernels.required_extent(0, counts, strides) + int(rng.integers(0, 5))
            src = make_memory(start + count * extent + 8, seed=2)
            size = kernels.packed_size(counts)
            expected = np.zeros(count * size, dtype=np.uint8)
            for i in range(count):
                view = np.lib.stride_tricks.as_strided(
                    src[start + i * extent :],
                    shape=tuple(reversed(counts)),
                    strides=tuple(reversed(strides)),
                )
                expected[i * size : (i + 1) * size] = view.reshape(-1)
            dst = np.zeros_like(expected)
            kernels.pack_strided_many(src, dst, start, counts, strides, count, extent)
            assert np.array_equal(dst, expected)


class TestBlockListCopy:
    def test_gather(self):
        src = make_memory(128, seed=6)
        dst = np.zeros(12, dtype=np.uint8)
        blocks = [(0, 4), (50, 4), (100, 4)]
        moved = kernels.copy_block_list(src, dst, blocks, gather=True)
        assert moved == 12
        assert np.array_equal(dst, np.concatenate([src[0:4], src[50:54], src[100:104]]))

    def test_scatter(self):
        src = np.arange(12, dtype=np.uint8)
        dst = np.zeros(128, dtype=np.uint8)
        blocks = [(10, 6), (60, 6)]
        kernels.copy_block_list(src, dst, blocks, gather=False)
        assert np.array_equal(dst[10:16], src[:6])
        assert np.array_equal(dst[60:66], src[6:])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(CudaInvalidValue):
            kernels.copy_block_list(
                np.zeros(8, np.uint8), np.zeros(8, np.uint8), [(4, 8)], gather=True
            )

    def test_negative_block_rejected(self):
        with pytest.raises(CudaInvalidValue):
            kernels.copy_block_list(
                np.zeros(8, np.uint8), np.zeros(8, np.uint8), [(-1, 2)], gather=True
            )
