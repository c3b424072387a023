"""Tests for the Spectrum-like baseline datatype engine."""

import numpy as np
import pytest

from repro.gpu.cost_model import SUMMIT_GPU
from repro.gpu.memory import HostBuffer
from repro.gpu.runtime import CudaRuntime
from repro.mpi.baseline import BaselineDatatypeEngine, contiguous_payload
from repro.mpi.constructors import DerivedDatatype, Type_contiguous, Type_indexed, Type_vector
from repro.mpi.datatype import BYTE, FLOAT, NamedDatatype
from repro.mpi.errors import MpiArgumentError, MpiTypeError


@pytest.fixture
def engine(free_runtime):
    return BaselineDatatypeEngine(free_runtime)


@pytest.fixture
def summit_engine(summit_runtime):
    return BaselineDatatypeEngine(summit_runtime)


def strided_type(nblocks=8, block=16, pitch=64):
    return Type_vector(nblocks, block, pitch, BYTE).Commit()


class TestPackFunctional:
    def test_gathers_blocks(self, engine, free_runtime):
        t = strided_type()
        src = free_runtime.malloc(t.extent)
        dst = free_runtime.malloc(t.size)
        src.data[:] = np.arange(src.nbytes, dtype=np.uint64).astype(np.uint8)
        position = engine.pack(src, t, 1, dst)
        assert position == t.size
        expected = np.concatenate([src.data[i * 64 : i * 64 + 16] for i in range(8)])
        assert np.array_equal(dst.data, expected)

    def test_position_argument(self, engine, free_runtime):
        t = Type_contiguous(16, BYTE).Commit()
        src = free_runtime.malloc(16)
        dst = free_runtime.malloc(64)
        src.data[:] = 5
        position = engine.pack(src, t, 1, dst, 32)
        assert position == 48
        assert (dst.data[32:48] == 5).all()
        assert not dst.data[:32].any()

    def test_unpack_roundtrip(self, engine, free_runtime):
        t = strided_type(4, 8, 32)
        original = free_runtime.malloc(t.extent)
        packed = free_runtime.malloc(t.size)
        original.data[:] = np.random.default_rng(0).integers(0, 255, original.nbytes, dtype=np.uint8)
        engine.pack(original, t, 1, packed)
        scattered = free_runtime.malloc(t.extent)
        engine.unpack(packed, 0, scattered, t, 1)
        repacked = free_runtime.malloc(t.size)
        engine.pack(scattered, t, 1, repacked)
        assert np.array_equal(packed.data, repacked.data)

    def test_warm_round_trip_never_walks_the_type_map(self, engine, free_runtime, monkeypatch):
        # 1 MiB of 8-B blocks: once the block list is memoised, pack and
        # unpack must not fall back to the per-byte generator type map.
        t = strided_type(1 << 17, 8, 16)
        original = free_runtime.malloc(t.extent)
        original.data[:] = np.random.default_rng(1).integers(0, 255, original.nbytes, dtype=np.uint8)
        warm = free_runtime.malloc(t.size)
        engine.pack(original, t, 1, warm)

        def walked(self):
            raise AssertionError("per-byte type-map walk on the baseline hot path")

        monkeypatch.setattr(DerivedDatatype, "layout", walked)
        monkeypatch.setattr(NamedDatatype, "layout", walked)
        packed = free_runtime.malloc(t.size)
        engine.pack(original, t, 1, packed)
        scattered = free_runtime.malloc(t.extent)
        engine.unpack(packed, 0, scattered, t, 1)
        repacked = free_runtime.malloc(t.size)
        engine.pack(scattered, t, 1, repacked)
        rows = np.lib.stride_tricks.as_strided(original.data, shape=(1 << 17, 8), strides=(16, 1))
        assert np.array_equal(packed.data, rows.reshape(-1))
        assert np.array_equal(packed.data, warm.data)
        assert np.array_equal(repacked.data, packed.data)

    def test_multiple_elements(self, engine, free_runtime):
        t = Type_vector(2, 4, 8, BYTE).Commit()  # extent 12+4? -> (1*8+4)=12 bytes
        src = free_runtime.malloc(t.extent * 3)
        dst = free_runtime.malloc(t.size * 3)
        src.data[:] = np.arange(src.nbytes, dtype=np.uint16).astype(np.uint8)
        engine.pack(src, t, 3, dst)
        offsets = [0, 8, 12, 20, 24, 32]
        expected = np.concatenate([src.data[o : o + 4] for o in offsets])
        assert np.array_equal(dst.data, expected)

    def test_irregular_indexed_type(self, engine, free_runtime):
        t = Type_indexed([2, 1, 3], [0, 5, 10], FLOAT).Commit()
        src = free_runtime.malloc(t.extent)
        dst = free_runtime.malloc(t.size)
        src.data[:] = np.arange(src.nbytes, dtype=np.uint8)
        engine.pack(src, t, 1, dst)
        expected = np.concatenate([src.data[0:8], src.data[20:24], src.data[40:52]])
        assert np.array_equal(dst.data, expected)

    def test_uncommitted_type_rejected(self, engine, free_runtime):
        t = Type_vector(2, 4, 8, BYTE)
        src = free_runtime.malloc(64)
        dst = free_runtime.malloc(64)
        with pytest.raises(MpiTypeError):
            engine.pack(src, t, 1, dst)

    def test_output_overflow_rejected(self, engine, free_runtime):
        t = strided_type()
        src = free_runtime.malloc(t.extent)
        dst = free_runtime.malloc(t.size - 1)
        with pytest.raises(MpiArgumentError):
            engine.pack(src, t, 1, dst)

    def test_unpack_input_overflow_rejected(self, engine, free_runtime):
        t = strided_type()
        packed = free_runtime.malloc(t.size - 1)
        out = free_runtime.malloc(t.extent)
        with pytest.raises(MpiArgumentError):
            engine.unpack(packed, 0, out, t, 1)

    def test_move_data_false_skips_bytes_but_charges_time(self, summit_runtime):
        engine = BaselineDatatypeEngine(summit_runtime, move_data=False)
        t = strided_type()
        src = summit_runtime.malloc(t.extent)
        dst = summit_runtime.malloc(t.size)
        src.data[:] = 7
        before = summit_runtime.clock.now
        engine.pack(src, t, 1, dst)
        assert summit_runtime.clock.now > before
        assert not dst.data.any()


class TestPackCost:
    def test_cost_scales_with_block_count(self, summit_engine):
        few = summit_engine.pack_cost(strided_type(nblocks=8), 1)
        many = summit_engine.pack_cost(strided_type(nblocks=800), 1)
        assert many.blocks == 800
        assert many.total_s > few.total_s

    def test_cost_formula(self, summit_engine):
        t = strided_type(nblocks=10, block=16)
        cost = summit_engine.pack_cost(t, 1)
        expected = 10 * SUMMIT_GPU.memcpy_call_s + 160 / SUMMIT_GPU.d2d_bandwidth
        assert cost.total_s == pytest.approx(expected)

    def test_clock_advances_by_cost(self, summit_runtime):
        engine = BaselineDatatypeEngine(summit_runtime)
        t = strided_type(nblocks=100)
        src = summit_runtime.malloc(t.extent)
        dst = summit_runtime.malloc(t.size)
        alloc_time = summit_runtime.clock.now
        cost = engine.pack_cost(t, 1).total_s
        engine.pack(src, t, 1, dst)
        assert summit_runtime.clock.now - alloc_time == pytest.approx(cost)

    def test_host_path_uses_slower_bandwidth(self, summit_engine):
        t = Type_contiguous(1 << 20, BYTE).Commit()
        device = summit_engine.pack_cost(t, 1, device=True)
        host = summit_engine.pack_cost(t, 1, device=False)
        assert host.total_s > device.total_s


class TestHelpers:
    def test_contiguous_payload_view(self, free_runtime):
        t = Type_contiguous(32, BYTE).Commit()
        buf = free_runtime.malloc(64)
        buf.data[:32] = 9
        view = contiguous_payload(buf, t, 1)
        assert view is not None
        assert view.nbytes == 32
        assert (view == 9).all()

    def test_contiguous_payload_rejects_strided(self):
        t = strided_type()
        assert contiguous_payload(HostBuffer(1024), t, 1) is None

    def test_contiguous_payload_overflow(self, free_runtime):
        t = Type_contiguous(128, BYTE).Commit()
        with pytest.raises(MpiArgumentError):
            contiguous_payload(free_runtime.malloc(64), t, 1)

    def test_check_fits(self, free_runtime):
        t = strided_type()
        BaselineDatatypeEngine.check_fits(free_runtime.malloc(t.extent), t, 1)
        with pytest.raises(MpiArgumentError):
            BaselineDatatypeEngine.check_fits(free_runtime.malloc(16), t, 1)
