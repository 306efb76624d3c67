"""Partition-aligned chunks and columnar pair transport of the parallel driver.

``workers=`` and ``shards=`` split ``R`` by whole smallest-element
partitions for the methods that take a global order, ship each chunk's
pairs as two int64 columns (or only a count), carry the winning attempt's
counters back, and record the split in the run manifest so a resumed run
rebuilds the identical chunks.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_join
from repro.core.api import BACKEND_METHODS, BACKENDS, join_methods, set_containment_join
from repro.core.order import build_order
from repro.core.parallel import (
    _join_chunk,
    apply_partition_split,
    parallel_join,
    plan_partition_split,
    split_collection,
)
from repro.core.results import ChunkResult, ColumnSink, make_sink
from repro.core.runlog import MANIFEST_NAME, RunLog, _decode_spill, _encode_spill
from repro.core.shard import ShardPolicy
from repro.core.stats import JoinStats
from repro.data.collection import SetCollection
from repro.data.io import load_collection
from repro.data.realworld import generate_real_world
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry

from conftest import random_instance

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="forked chunk runs keep these tests fast",
)

FIXTURES = Path(__file__).parent / "fixtures"


def _order(r: SetCollection, s: SetCollection):
    return build_order(s, universe=max(r.max_element(), s.max_element()) + 1)


def _naive(r: SetCollection, s: SetCollection):
    sink = make_sink("pairs")
    naive_join(r, s, sink)
    return sorted(sink.pairs)


@pytest.fixture(scope="module")
def aol_small() -> SetCollection:
    return generate_real_world("aol", scale=0.00005, seed=3)


# -- the partition split ----------------------------------------------------


class TestPartitionSplit:
    def test_whole_partitions_stay_in_one_chunk(self, aol_small):
        order = _order(aol_small, aol_small)
        split = plan_partition_split(aol_small, 2, order)
        assert all(chunk >= 0 for __, chunk in split), "no partition is dealt"
        chunk_of = dict(split)
        chunks = split_collection(aol_small, 2, "partition", order, split)
        for c, (rids, piece) in enumerate(chunks):
            assert rids == sorted(rids)
            assert list(piece.records) == [aol_small.records[i] for i in rids]
            for rid in rids:
                anchor = order.smallest(aol_small.records[rid])
                assert chunk_of[anchor] == c

    def test_heavy_partition_is_dealt_round_robin(self):
        # Element 0 is in every set: one partition holds all of R, so it
        # exceeds any chunk's fair share and is dealt record by record.
        r = SetCollection([[0, i] for i in range(1, 13)] + [[5, 7]])
        order = _order(r, r)
        split = plan_partition_split(r, 3, order)
        assert dict(split)[0] == -1
        rid_lists = apply_partition_split(r, 3, order, split)
        assert sorted(len(rids) for rids in rid_lists) == [4, 4, 5]

    def test_an_empty_chunk_falls_back_to_round_robin(self):
        # Two partitions for four chunks: the heavy one (anchor 0) is dealt
        # to chunks 0 and 1, the light one fills chunk 2, chunk 3 would
        # stay empty -- so every partition is dealt instead.
        r = SetCollection([[0, 5], [1], [0, 6], [1, 2]])
        s = SetCollection([[0, 5, 6]] * 6 + [[1, 2]])
        order = _order(r, s)
        assert plan_partition_split(r, 4, order) == [(0, -1), (1, -1)]
        chunks = split_collection(r, 4, "partition", order)
        rr = split_collection(r, 4, "round_robin")
        assert [rids for rids, __ in chunks] == [rids for rids, __ in rr]

    def test_tiny_input_gives_one_record_per_chunk_in_rid_order(self):
        r = SetCollection([[3], [1, 2], [0, 3], [2], [1]])
        order = _order(r, r)
        chunks = split_collection(r, 8, "partition", order)
        assert [rids for rids, __ in chunks] == [[0], [1], [2], [3], [4]]

    def test_split_without_a_record_anchor_is_refused(self):
        from repro.errors import InvalidParameterError

        r = SetCollection([[1], [2]])
        order = _order(r, r)
        for split in ([], [(1, 0)]):
            with pytest.raises(InvalidParameterError, match="names no chunk"):
                apply_partition_split(r, 2, order, split)

    def test_partition_needs_an_order(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            split_collection(SetCollection([[1]]), 2, "partition")

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 9), min_size=1, max_size=4),
            min_size=1, max_size=40,
        ),
        st.integers(1, 9),
    )
    def test_split_is_an_exact_cover_with_the_requested_chunk_count(
        self, records, chunks
    ):
        r = SetCollection(records)
        order = _order(r, r)
        split = plan_partition_split(r, chunks, order)
        pieces = split_collection(r, chunks, "partition", order, split)
        assert len(pieces) == min(chunks, len(r))
        assert all(len(piece) > 0 for __, piece in pieces)
        rids = sorted(rid for chunk, __ in pieces for rid in chunk)
        assert rids == list(range(len(r)))
        # The recorded split alone rebuilds the identical chunks.
        again = apply_partition_split(r, len(pieces), order, split)
        assert again == [chunk for chunk, __ in pieces]


# -- columnar transport -----------------------------------------------------


class TestColumnarTransport:
    def test_column_sink_collects_every_emission_form(self):
        sink = ColumnSink()
        sink.add(0, 1)
        sink.add_rids([2, 3], 4)
        sink.add_sids(5, np.array([6, 7]))
        sink.add_pairs(np.array([8]), [9])
        rids, sids = sink.columns()
        assert len(sink) == 6
        assert rids.dtype == np.int64 and sids.dtype == np.int64
        assert list(zip(rids.tolist(), sids.tolist())) == [
            (0, 1), (2, 4), (3, 4), (5, 6), (5, 7), (8, 9)
        ]

    def test_chunk_runner_remaps_rids_with_columns(self):
        r, s = random_instance(4)
        expected = sorted(set_containment_join(r, s))
        rid_map = list(range(100, 100 + len(r)))
        result = _join_chunk((rid_map, r, s, "lcjoin", "python", None, {}, {}))
        assert isinstance(result, ChunkResult)
        assert result.rids.dtype == np.int64
        assert sorted(result) == sorted((rid + 100, sid) for rid, sid in expected)
        assert result.count == len(expected)
        assert result.stats is not None and result.stats.binary_searches > 0

    def test_count_only_chunk_ships_no_pairs(self):
        r, s = random_instance(4)
        result = _join_chunk((0, r, s, "lcjoin", "python", None, {}, {}, "count"))
        assert result.count == len(set_containment_join(r, s))
        assert len(result.rids) == 0 and len(result.sids) == 0
        assert result.count > 0 and not result.has_pairs

    @fork_only
    @pytest.mark.parametrize("mode", [{"workers": 2}, {"shards": 2}])
    def test_pair_list_is_serial_after_sorting(self, aol_small, mode):
        expected = sorted(set_containment_join(aol_small, aol_small))
        pairs = set_containment_join(aol_small, aol_small, **mode)
        assert isinstance(pairs, list)
        assert all(type(rid) is int and type(sid) is int for rid, sid in pairs)
        assert sorted(pairs) == expected


# -- counters cross the process boundary ------------------------------------


@fork_only
class TestCountersCrossProcesses:
    @pytest.mark.parametrize(
        "mode",
        [
            {"workers": 2},
            # Two chunks: at eight this workload's top partition is dealt.
            {"shards": 2, "shard_policy": ShardPolicy(chunks_per_shard=1)},
        ],
    )
    def test_results_and_tree_nodes_match_serial(self, aol_small, mode):
        serial = JoinStats()
        set_containment_join(aol_small, aol_small, stats=serial)
        stats = JoinStats()
        pairs, report = parallel_join(
            aol_small, aol_small, return_report=True, stats=stats, **mode
        )
        chunks = len(report.chunks)
        order = _order(aol_small, aol_small)
        split = plan_partition_split(aol_small, chunks, order)
        assert all(chunk >= 0 for __, chunk in split), "workload deals a partition"
        # Whole partitions: every chunk's tree holds its own subtrees of the
        # serial tree plus one root of its own.
        assert stats.tree_nodes == serial.tree_nodes + chunks - 1
        assert len(pairs) == serial.results
        assert stats.binary_searches > 0 and stats.rounds > 0

    @pytest.mark.parametrize("mode", [{"workers": 2}, {"shards": 2}])
    def test_registry_mirror_records_worker_counters(self, aol_small, mode):
        reg = MetricsRegistry()
        stats = JoinStats()
        pairs = set_containment_join(
            aol_small, aol_small, stats=stats, metrics=reg, **mode
        )
        assert reg.counters["join.binary_searches"] == stats.binary_searches > 0
        assert reg.counters["join.results"] == stats.results == len(pairs)
        assert JoinStats.from_registry(reg).as_dict() == stats.as_dict()

    def test_superseded_twin_counters_are_dropped(self):
        r, s = random_instance(11)
        serial = JoinStats()
        set_containment_join(r, s, stats=serial)
        policy = ShardPolicy(
            heartbeat_interval=0.05,
            speculation_quorum=2,
            speculation_factor=2.0,
            speculation_min_seconds=0.1,
            chunks_per_shard=6,
        )
        stats = JoinStats()
        pairs, report = parallel_join(
            r, s, method="lcjoin", shards=2, shard_policy=policy,
            faults=FaultPlan.parse("shard:0:slow=1.2;shard:1:slow=0.1"),
            return_report=True, stats=stats,
        )
        assert report.speculated_chunks, report.summary()
        # One settled attempt per chunk contributes: a merged loser would
        # add its own tree on top.
        assert stats.tree_nodes == sum(
            _join_chunk((rids, piece, s, "lcjoin", "python", None,
                         {"order": _order(r, s)}, {})).stats.tree_nodes
            for rids, piece in split_collection(
                r, len(report.chunks), "partition", _order(r, s)
            )
        )
        assert len(pairs) == serial.results


# -- count-only runs ship counts --------------------------------------------


@fork_only
class TestCountOnly:
    @pytest.mark.parametrize("mode", [{"workers": 2}, {"shards": 2}])
    def test_count_matches_serial(self, aol_small, mode):
        expected = set_containment_join(aol_small, aol_small, collect="count")
        stats = JoinStats()
        got = set_containment_join(
            aol_small, aol_small, collect="count", stats=stats, **mode
        )
        assert got == expected == stats.results
        assert parallel_join(aol_small, aol_small, collect="count", **mode) == expected

    def test_callback_streams_every_pair(self):
        r, s = random_instance(8)
        seen = []
        count = set_containment_join(
            r, s, workers=2, collect="callback",
            callback=lambda rid, sid: seen.append((rid, sid)),
        )
        assert count == len(seen)
        assert sorted(seen) == sorted(set_containment_join(r, s))

    def test_checkpointed_count_still_spills_pairs(self, tmp_path):
        r, s = random_instance(3)
        ckpt = tmp_path / "ck"
        count = parallel_join(
            r, s, workers=2, collect="count", checkpoint_dir=str(ckpt)
        )
        assert count == len(set_containment_join(r, s))
        completed, __ = RunLog.open(str(ckpt)).load_chunks()
        assert sum(len(list(c)) for c in completed.values()) == count
        pairs = parallel_join(r, s, workers=2, checkpoint_dir=str(ckpt), resume=True)
        assert sorted(pairs) == sorted(set_containment_join(r, s))


# -- durability -------------------------------------------------------------


class TestSpillFormat:
    def test_spill_bytes_are_unchanged(self):
        pairs = [(3, 1), (0, 2), (70000, 7), (12, 1234567)]
        body = "".join(f"{rid} {sid}\n" for rid, sid in pairs).encode("ascii")
        header = (
            f"LCJRL1 4 {len(pairs)} {hashlib.sha256(body).hexdigest()}\n"
        ).encode("ascii")
        result = ChunkResult.from_pairs(pairs)
        assert _encode_spill(4, result.rids, result.sids) == header + body
        rids, sids = _decode_spill(header + body, 4)
        assert list(zip(rids.tolist(), sids.tolist())) == pairs

    def test_empty_spill_roundtrips(self):
        empty = ChunkResult.from_pairs([])
        raw = _encode_spill(0, empty.rids, empty.sids)
        rids, sids = _decode_spill(raw, 0)
        assert len(rids) == len(sids) == 0

    def test_malformed_lines_with_valid_checksum_are_rejected(self):
        from repro.errors import CheckpointError

        body = b"1 2 3\n4\n"
        raw = b"LCJRL1 0 2 " + hashlib.sha256(body).hexdigest().encode() + b"\n" + body
        with pytest.raises(CheckpointError):
            _decode_spill(raw, 0)


@fork_only
class TestPartitionDurability:
    def test_manifest_records_the_split_and_resume_rebuilds_it(self, tmp_path):
        r, s = random_instance(41)
        expected = sorted(set_containment_join(r, s))
        ckpt = str(tmp_path / "ck")
        parallel_join(r, s, workers=2, checkpoint_dir=ckpt)
        manifest = json.loads((Path(ckpt) / MANIFEST_NAME).read_text())
        assert manifest["strategy"] == "partition"
        order = _order(r, s)
        assert [tuple(p) for p in manifest["split"]] == plan_partition_split(
            r, 2, order
        )
        pairs, report = parallel_join(
            r, s, workers=2, checkpoint_dir=ckpt, resume=True, return_report=True
        )
        assert sorted(pairs) == expected
        assert report.resumed_chunks == [0, 1]
        expected_sizes = [
            len(rids) for rids in apply_partition_split(
                r, 2, order, [tuple(p) for p in manifest["split"]]
            )
        ]
        assert [c.size for c in report.chunks] == expected_sizes

    def test_round_robin_manifest_from_before_the_split_still_resumes(
        self, tmp_path
    ):
        """A checkpoint written before partition chunks existed: its
        manifest says ``round_robin`` and has no split, and chunk 0 is
        spilled under that split. Resuming with the default strategy adopts
        the recorded one, so the spill names the same rids."""
        source = FIXTURES / "runlog_v1"
        ckpt = tmp_path / "ck"
        shutil.copytree(source / "checkpoint", ckpt)
        r = load_collection(str(source / "r.txt"))
        s = load_collection(str(source / "s.txt"))
        manifest = json.loads((ckpt / MANIFEST_NAME).read_text())
        assert manifest["strategy"] == "round_robin" and "split" not in manifest
        pairs, report = parallel_join(
            r, s, method="lcjoin", workers=2, checkpoint_dir=str(ckpt),
            resume=True, return_report=True,
        )
        assert sorted(pairs) == _naive(r, s)
        assert report.resumed_chunks == [0]
        assert RunLog.open(str(ckpt)).is_complete()


# -- differential: every method x backend x mode equals the oracle ----------


@st.composite
def skewed_workloads(draw):
    """Small skewed ``(R, S)`` pairs: a hot element that anchors one
    dominant partition, few partitions against many chunks, empty
    collections, empty records, and both self joins and ``R != S``."""
    universe = draw(st.integers(1, 10))
    hot = [0] * 8 + [min(1, universe - 1)] * 3
    element = st.sampled_from(hot + list(range(universe)))
    record = st.lists(element, min_size=0, max_size=5, unique=True)
    r = SetCollection(draw(st.lists(record, max_size=16)), validate=False)
    if draw(st.booleans()):
        return r, r
    return r, SetCollection(draw(st.lists(record, max_size=16)), validate=False)


DOMINANT = SetCollection([[0, i % 7 + 1] for i in range(14)] + [[2, 3], [4]])
FEW_PARTITIONS = SetCollection([[0, 1], [0, 2], [0, 3], [0, 4], [0, 1, 2]])
EMPTY = SetCollection([], validate=False)
EMPTY_RECORDS = SetCollection([[], [0, 1], [], [2]], validate=False)


@fork_only
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(skewed_workloads())
@example((DOMINANT, DOMINANT))
@example((FEW_PARTITIONS, DOMINANT))
@example((EMPTY, DOMINANT))
@example((DOMINANT, EMPTY))
@example((EMPTY_RECORDS, DOMINANT))
@example((DOMINANT, EMPTY_RECORDS))
def test_every_method_backend_and_mode_equals_naive(workload):
    r, s = workload
    expected = _naive(r, s)
    for method in join_methods():
        assert sorted(set_containment_join(r, s, method=method)) == expected, method
    for method in sorted(BACKEND_METHODS):
        for backend in BACKENDS:
            serial = set_containment_join(r, s, method=method, backend=backend)
            assert sorted(serial) == expected, (method, backend)
            for mode, requested in (({"workers": 2}, 2), ({"shards": 2}, 8)):
                pairs, report = parallel_join(
                    r, s, method=method, backend=backend,
                    return_report=True, **mode,
                )
                assert sorted(pairs) == expected, (method, backend, mode)
                assert len(report.chunks) == min(requested, len(r))
