"""Property pins for batch booking.

The batch entry points are the scalar booking rules under one lock, not a
different model: every Hypothesis case here drives the same messages
through a batched NIC and a scalar NIC (the defined row-major loop) and
demands bit-identical books —
reservations, landings, cursors, counters and ``state_fingerprint`` — across

* flat and fat-tree (routed) worlds,
* ingesting (duplex) and inject-only batches,
* tiny ledger/pending limits (ring wraparound and advisory eviction),
* read-only arrays reused across rounds.

The last class pins the executor surface end to end: a halo-exchange driver
in ``booking="batched"`` mode must finish with the same NIC fingerprint and
the same per-rank virtual clocks (time *and* event counts) as the scalar
driver — the priced-clock bit-identity the acceptance criteria name.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bench.simthroughput import CACHED_CONFIG, EAGER_CONFIG, FABRIC_SPEC, HaloDriver
from repro.machine.nic import NicTimeline
from repro.machine.spec import SUMMIT
from repro.machine.topology import Topology
from repro.tempi.measurement import measure_system
from repro.tempi.perf_model import PerformanceModel

#: Clean virtual seconds — exactness is the point, not the values.
_SECONDS = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.25))
_WIRE = st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.75))


@st.composite
def batch_cases(draw):
    """One exchange: m distinct sources x k messages, mixed wires/limits."""
    m = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=3))
    sources = draw(
        st.lists(st.integers(0, 7), min_size=m, max_size=m, unique=True)
    )
    # Rows may repeat a destination or not — both must price identically
    # to the loop.
    dests = [
        draw(st.lists(st.integers(0, 7), min_size=k, max_size=k))
        for _ in range(m)
    ]
    ready = [[draw(_SECONDS) for _ in range(k)] for _ in range(m)]
    wire = [[draw(_WIRE) for _ in range(k)] for _ in range(m)]
    nbytes = [[draw(st.integers(0, 4096)) for _ in range(k)] for _ in range(m)]
    ledger_limit = draw(st.integers(1, 4))
    pending_limit = draw(st.integers(1, 4))
    ingest = draw(st.booleans())
    return sources, dests, ready, wire, nbytes, ledger_limit, pending_limit, ingest


def _scalar_reference(nic, sources, dests, ready, wire, nbytes, ingest, paths=None):
    """The defining row-major scalar loop, returning the stacked fields."""
    start, arrival, stalled, seq = [], [], [], []
    for i, source in enumerate(sources):
        row = [[], [], [], []]
        for j, dest in enumerate(dests[i]):
            res = nic.reserve(
                source, dest, ready[i][j], wire[i][j], nbytes[i][j],
                ingest=ingest, path=paths[i][j] if paths is not None else None,
            )
            row[0].append(res.start)
            row[1].append(res.arrival)
            row[2].append(res.stalled_s)
            row[3].append(res.seq)
        start.append(row[0])
        arrival.append(row[1])
        stalled.append(row[2])
        seq.append(row[3])
    return start, arrival, stalled, seq


def _books(nic):
    """Every observable the batch entry points must keep bit-identical."""
    return (
        nic.state_fingerprint(),
        nic.reservations,
        nic.stalls,
        nic.stalled_s,
        nic.peak_pending,
        nic._pending_total,
        sorted(nic._pending),
    )


class TestReserveBatchIsTheScalarLoop:
    @settings(max_examples=60, deadline=None)
    @given(batch_cases())
    def test_flat_books_identical(self, case):
        sources, dests, ready, wire, nbytes, ledger_limit, pending_limit, ingest = case
        scalar = NicTimeline(ledger_limit=ledger_limit, pending_limit=pending_limit)
        batched = NicTimeline(ledger_limit=ledger_limit, pending_limit=pending_limit)
        reference = _scalar_reference(scalar, sources, dests, ready, wire, nbytes, ingest)
        batch = batched.reserve_batch(
            np.asarray(sources, dtype=np.int64),
            np.asarray(dests, dtype=np.int64),
            np.asarray(ready, dtype=np.float64),
            np.asarray(wire, dtype=np.float64),
            np.asarray(nbytes, dtype=np.int64),
            ingest=ingest,
        )
        assert batch.start.tolist() == reference[0]
        assert batch.arrival.tolist() == reference[1]
        assert batch.stalled_s.tolist() == reference[2]
        assert batch.seq.tolist() == reference[3]
        assert _books(batched) == _books(scalar)
        # The compact ring answers occupancy questions identically across
        # its overwrite-append wraparound, whole-wire and per-source.
        probes = {0.0, *(t for row in reference[1] for t in row)}
        for at in sorted(probes):
            assert batched.in_flight(at) == scalar.in_flight(at)
            for source in sources:
                assert batched.in_flight(at, source=source) == scalar.in_flight(
                    at, source=source
                )

    @settings(max_examples=25, deadline=None)
    @given(batch_cases(), st.booleans())
    def test_fat_tree_books_identical(self, case, device):
        sources, dests, ready, wire, nbytes, ledger_limit, pending_limit, ingest = case
        topology = Topology(8, machine=SUMMIT, spec=FABRIC_SPEC)
        paths = [
            [topology.resolve(s, d, device_buffers=device) for d in dests[i]]
            for i, s in enumerate(sources)
        ]
        scalar = NicTimeline(ledger_limit=ledger_limit, pending_limit=pending_limit)
        batched = NicTimeline(ledger_limit=ledger_limit, pending_limit=pending_limit)
        reference = _scalar_reference(
            scalar, sources, dests, ready, wire, nbytes, ingest, paths=paths
        )
        batch = batched.reserve_batch(
            np.asarray(sources, dtype=np.int64),
            np.asarray(dests, dtype=np.int64),
            np.asarray(ready, dtype=np.float64),
            np.asarray(wire, dtype=np.float64),
            np.asarray(nbytes, dtype=np.int64),
            ingest=ingest,
            paths=paths,
        )
        assert batch.start.tolist() == reference[0]
        assert batch.arrival.tolist() == reference[1]
        assert batch.stalled_s.tolist() == reference[2]
        assert batch.seq.tolist() == reference[3]
        assert _books(batched) == _books(scalar)


class TestIngestBatchIsTheScalarLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        senders=st.integers(1, 3),
        receivers=st.integers(1, 3),
        wire=st.lists(_WIRE, min_size=9, max_size=9),
        ready=st.lists(_SECONDS, min_size=9, max_size=9),
    )
    def test_landings_and_books_identical(self, senders, receivers, wire, ready):
        """Every receiver commits its whole arrival batch: vec == loop."""
        sources = list(range(senders))
        dests = list(range(10, 10 + receivers))
        nics = [NicTimeline(ledger_limit=4, pending_limit=8) for _ in range(2)]
        fields = {d: [] for d in dests}
        for nic in nics:
            it = 0
            book = {d: [] for d in dests}
            for s in sources:
                for d in dests:
                    w = wire[it % len(wire)] or 0.25  # ingestion rows need wire > 0
                    res = nic.reserve(s, d, ready[it % len(ready)], w, 64, ingest=True)
                    book[d].append((res.start, s, res.seq, w, res.arrival))
                    it += 1
            fields = book
        post = np.asarray([[r[0] for r in fields[d]] for d in dests])
        src = np.asarray([[r[1] for r in fields[d]] for d in dests])
        seq = np.asarray([[r[2] for r in fields[d]] for d in dests])
        wires = np.asarray([[r[3] for r in fields[d]] for d in dests])
        arr = np.asarray([[r[4] for r in fields[d]] for d in dests])
        from repro.machine.nic import IngestRecord

        scalar_landings = [
            nics[0].ingest(
                d, [IngestRecord(*fields[d][j][:5]) for j in range(senders)]
            )
            for d in dests
        ]
        vec_landings = nics[1].ingest_batch_vec(
            np.asarray(dests, dtype=np.int64), post, src, seq, wires, arr
        )
        assert vec_landings.tolist() == scalar_landings
        assert _books(nics[1]) == _books(nics[0])
        assert nics[1].ingests == nics[0].ingests
        assert nics[1].ingest_stalls == nics[0].ingest_stalls
        assert nics[1].ingest_stalled_s == nics[0].ingest_stalled_s


class TestFrozenShapeFastLane:
    def test_frozen_arrays_price_like_fresh_ones(self):
        """Round n reusing the same read-only arrays must equal a NIC fed
        fresh writable copies."""
        m, k = 6, 3
        sources = np.arange(m, dtype=np.int64)
        dests = np.asarray([[(i + j + 1) % m + m for j in range(k)] for i in range(m)],
                           dtype=np.int64)
        wire = np.full((m, k), 0.5, dtype=np.float64)
        for array in (sources, dests, wire):
            array.flags.writeable = False
        ingest_dests = np.asarray(sorted({int(d) for row in dests for d in row}),
                                  dtype=np.int64)
        ingest_dests.flags.writeable = False
        frozen = NicTimeline(ledger_limit=4, pending_limit=8)
        fresh = NicTimeline(ledger_limit=4, pending_limit=8)
        for round_index in range(4):
            ready = 0.25 * round_index
            a = frozen.reserve_batch(sources, dests, ready, wire, 128, ingest=True)
            b = fresh.reserve_batch(
                sources.copy(), dests.copy(), ready, wire.copy(), 128, ingest=True
            )
            assert a.start.tolist() == b.start.tolist()
            assert a.arrival.tolist() == b.arrival.tolist()
            assert a.seq.tolist() == b.seq.tolist()
            # Commit each destination's arrivals so the rounds interleave
            # reserve and ingest exactly the way the halo harness does.
            rows = {int(d): [] for d in ingest_dests.tolist()}
            for i in range(m):
                for j in range(k):
                    rows[int(dests[i, j])].append(
                        (a.start[i, j], int(sources[i]), int(a.seq[i, j]),
                         wire[i, j], a.arrival[i, j])
                    )
            post = np.asarray([[r[0] for r in rows[d]] for d in ingest_dests.tolist()])
            src = np.asarray([[r[1] for r in rows[d]] for d in ingest_dests.tolist()])
            seq = np.asarray([[r[2] for r in rows[d]] for d in ingest_dests.tolist()])
            wires = np.asarray([[r[3] for r in rows[d]] for d in ingest_dests.tolist()])
            arr = np.asarray([[r[4] for r in rows[d]] for d in ingest_dests.tolist()])
            va = frozen.ingest_batch_vec(ingest_dests, post, src, seq, wires, arr)
            vb = fresh.ingest_batch_vec(ingest_dests.copy(), post, src, seq, wires, arr)
            assert va.tolist() == vb.tolist()
            assert _books(frozen) == _books(fresh)


@st.composite
def interleaved_ops(draw):
    """A wraparound script: reserve/ingest interleaved on a tiny ring."""
    capacity = draw(st.integers(1, 4))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("reserve", "ingest")),
                st.integers(0, 3),      # source (or ignored)
                st.integers(4, 6),      # dest
                _SECONDS,               # ready
                st.sampled_from((0.25, 0.5, 1.0)),  # wire > 0
            ),
            min_size=1,
            max_size=24,
        )
    )
    return capacity, ops


class TestLedgerRingWraparound:
    @settings(max_examples=60, deadline=None)
    @given(interleaved_ops())
    def test_in_flight_and_peak_pending_survive_overwrite_append(self, case):
        """Satellite pin: a 1-4 slot ring under interleaved reserve/ingest.

        ``in_flight`` must agree with an independent bounded-window model
        (a deque of the last ``capacity`` rows) at every arrival edge, and
        the advisory pending books must stay internally consistent —
        ``peak_pending`` is the running max of the live total, which always
        equals the sum of the per-destination buckets.
        """
        capacity, ops = case
        nic = NicTimeline(ledger_limit=capacity, pending_limit=64)
        window = deque(maxlen=capacity)
        peak = 0
        outstanding = {}  # dest -> list of IngestRecords not yet committed
        for op, source, dest, ready, wire in ops:
            if op == "reserve":
                res = nic.reserve(source, dest, ready, wire, 32, ingest=True)
                window.append((source, res.start, res.arrival))
                from repro.machine.nic import IngestRecord

                outstanding.setdefault(dest, []).append(
                    IngestRecord(res.start, source, res.seq, wire, res.arrival)
                )
            else:
                records = outstanding.pop(dest, [])
                if records:
                    nic.ingest(dest, records)
            live = sum(len(bucket) for bucket in nic._pending.values())
            assert nic._pending_total == live
            peak = max(peak, live)
            assert nic.peak_pending == peak
            probes = {0.0, ready, *(row[2] for row in window)}
            for at in sorted(probes):
                expected = sum(1 for _, s0, a0 in window if s0 <= at < a0)
                assert nic.in_flight(at) == expected
                for src0 in range(4):
                    expected_src = sum(
                        1 for s, s0, a0 in window if s == src0 and s0 <= at < a0
                    )
                    assert nic.in_flight(at, source=src0) == expected_src


class TestBatchedBookingEndToEnd:
    def test_halo_driver_digests_identical(self):
        """The executor surface: batched == scalar on NIC fingerprint and
        per-rank priced clocks (now *and* event counts), flat and fat-tree,
        cached and eager."""
        model = PerformanceModel(measure_system(SUMMIT))
        for topology in (None, FABRIC_SPEC):
            for config in (CACHED_CONFIG, EAGER_CONFIG):
                digests = []
                for booking in ("scalar", "batched"):
                    driver = HaloDriver(16, config, model,
                                        topology=topology, booking=booking)
                    for _ in range(3):
                        driver.round()
                    digests.append(driver.digest())
                assert digests[0] == digests[1], (topology, config)
