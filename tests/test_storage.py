"""Tests for the binary persistence layer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import set_containment_join
from repro.data.collection import SetCollection
from repro.errors import DatasetError
from repro.index.inverted import InvertedIndex
from repro.index.storage import (
    load_collection_binary,
    load_index,
    save_collection_binary,
    save_index,
)

records = st.lists(
    st.lists(st.integers(0, 50), min_size=1, max_size=8), min_size=1, max_size=20
)


class TestCollectionRoundtrip:
    def test_roundtrip(self, tmp_path):
        original = SetCollection([[1, 5, 9], [0], [3, 4]])
        path = str(tmp_path / "c.bin")
        save_collection_binary(original, path)
        assert load_collection_binary(path) == original

    def test_empty_collection(self, tmp_path):
        original = SetCollection([], validate=False)
        path = str(tmp_path / "e.bin")
        save_collection_binary(original, path)
        assert len(load_collection_binary(path)) == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DatasetError, match="magic"):
            load_collection_binary(str(path))

    def test_truncated(self, tmp_path):
        good = tmp_path / "good.bin"
        save_collection_binary(SetCollection([[1, 2, 3]] * 5), str(good))
        bad = tmp_path / "bad.bin"
        bad.write_bytes(good.read_bytes()[:-8])
        with pytest.raises(DatasetError, match="truncated"):
            load_collection_binary(str(bad))

    @settings(max_examples=25, deadline=None)
    @given(records)
    def test_roundtrip_property(self, recs):
        import os
        import tempfile

        original = SetCollection(recs)
        fd, path = tempfile.mkstemp(suffix=".bin")
        os.close(fd)
        try:
            save_collection_binary(original, path)
            assert load_collection_binary(path) == original
        finally:
            os.unlink(path)


class TestIndexRoundtrip:
    def _roundtrip(self, index, tmp_path):
        path = str(tmp_path / "i.bin")
        save_index(index, path)
        return load_index(path)

    def test_global_index(self, tmp_path):
        data = SetCollection([[0, 2], [1, 2], [0, 1, 2]])
        index = InvertedIndex.build(data)
        loaded = self._roundtrip(index, tmp_path)
        assert loaded.inf_sid == index.inf_sid
        assert list(loaded.universe) == list(index.universe)
        assert isinstance(loaded.universe, range)  # range form preserved
        assert {e: list(v) for e, v in loaded.lists.items()} == {
            e: list(v) for e, v in index.lists.items()
        }

    def test_local_index(self, tmp_path):
        data = SetCollection([[0, 2], [1, 2], [0, 1, 2]])
        index = InvertedIndex.build(data)
        local = index.build_local(index[0], data)
        loaded = self._roundtrip(local, tmp_path)
        assert list(loaded.universe) == [0, 2]
        assert loaded.inf_sid == index.inf_sid

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 24)
        with pytest.raises(DatasetError, match="magic"):
            load_index(str(path))

    def test_loaded_index_joins_identically(self, tmp_path):
        from repro.core.framework import framework_join
        from repro.core.results import PairListSink

        s = SetCollection([[0, 1], [1, 2], [0, 1, 2]])
        r = SetCollection([[1], [0, 1]])
        index = InvertedIndex.build(s)
        loaded = self._roundtrip(index, tmp_path)
        a, b = PairListSink(), PairListSink()
        framework_join(r, s, a, index=index)
        framework_join(r, s, b, index=loaded)
        assert a.sorted_pairs() == b.sorted_pairs()


def test_end_to_end_persistence_workflow(tmp_path):
    """Save data + index, reload in a 'new process', join."""
    data = SetCollection([[0, 1, 2], [1, 2], [2]])
    cpath = str(tmp_path / "data.bin")
    ipath = str(tmp_path / "index.bin")
    save_collection_binary(data, cpath)
    save_index(InvertedIndex.build(data), ipath)

    reloaded = load_collection_binary(cpath)
    index = load_index(ipath)
    pairs = set_containment_join(
        reloaded, reloaded, method="framework", index=index
    )
    assert sorted(pairs) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]


# -- hybrid index shared-memory round trip ---------------------------------


class TestHybridSharedMemory:
    def _collection(self):
        # Element 0 is in every set (dense); the tail elements are sparse.
        return SetCollection(
            [[0, i % 7 + 1, i % 11 + 8] for i in range(120)]
        )

    def test_roundtrip_preserves_bitmap(self):
        import numpy as np

        from repro.index.storage import HybridInvertedIndex

        hyb = HybridInvertedIndex.build(self._collection())
        assert hyb.num_dense > 0
        handle = hyb.to_shared_memory()
        try:
            assert handle.kind == "hybrid"
            attached = HybridInvertedIndex.from_shared_memory(handle)
            assert np.array_equal(attached.bitmap, hyb.bitmap)
            assert np.array_equal(attached.dense_ids, hyb.dense_ids)
            assert np.array_equal(attached.dense_map, hyb.dense_map)
            assert attached.bitmap_words == hyb.bitmap_words
            assert attached.offsets.tolist() == hyb.offsets.tolist()
            # Attached arrays are read-only borrows.
            with pytest.raises(ValueError):
                attached.bitmap[0] = 0
            attached.close()
        finally:
            handle.cleanup()
        handle.cleanup()  # idempotent

    def test_attach_shared_index_dispatches_on_kind(self):
        from repro.index.storage import (
            CSRInvertedIndex,
            HybridInvertedIndex,
            attach_shared_index,
        )

        data = self._collection()
        for index in (CSRInvertedIndex.build(data), HybridInvertedIndex.build(data)):
            handle = index.to_shared_memory()
            try:
                attached = attach_shared_index(handle)
                assert type(attached) is type(index)
                attached.close()
            finally:
                handle.cleanup()

    def test_hybrid_attach_rejects_csr_handle(self):
        from repro.errors import InvalidParameterError
        from repro.index.storage import CSRInvertedIndex, HybridInvertedIndex

        handle = CSRInvertedIndex.build(self._collection()).to_shared_memory()
        try:
            with pytest.raises(InvalidParameterError, match="carries"):
                HybridInvertedIndex.from_shared_memory(handle)
        finally:
            handle.cleanup()

    def test_handle_pickle_keeps_kind(self):
        import pickle

        from repro.index.storage import HybridInvertedIndex

        handle = HybridInvertedIndex.build(self._collection()).to_shared_memory()
        try:
            clone = pickle.loads(pickle.dumps(handle))
            assert clone.kind == "hybrid"
            assert clone.segments == handle.segments
        finally:
            handle.cleanup()

    def test_attached_join_matches_owner(self):
        from repro.core.framework import framework_join
        from repro.core.results import PairListSink
        from repro.index.storage import HybridInvertedIndex

        s = self._collection()
        r = SetCollection([[0], [0, 1], [0, 1, 8], [3, 9]])
        hyb = HybridInvertedIndex.build(s)
        handle = hyb.to_shared_memory()
        try:
            attached = HybridInvertedIndex.from_shared_memory(handle)
            a, b = PairListSink(), PairListSink()
            framework_join(r, s, a, index=hyb, backend="hybrid")
            framework_join(r, s, b, index=attached, backend="hybrid")
            assert a.sorted_pairs() == b.sorted_pairs()
            attached.close()
        finally:
            handle.cleanup()


# -- interrupted-run shm hygiene -------------------------------------------


_CHILD_SCRIPT = """
import signal, sys, time
from repro.data.collection import SetCollection
from repro.index.storage import CSRInvertedIndex

s = SetCollection([[0, 1, 2], [1, 2], [0, 2, 3]])
handle = CSRInvertedIndex.build(s).to_shared_memory()
print(";".join(name for name, __, __ in handle.segments), flush=True)
time.sleep(60)
"""


class TestInterruptedRunHygiene:
    """Satellite: segments created by an interrupted run must not leak.

    A SIGKILL leaks by definition (nothing runs — the checkpoint layer's
    segment list covers that on resume); the storage-level backstop
    handlers must close the SIGINT/SIGTERM hole.
    """

    @staticmethod
    def _spawn_child():
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [_sys.executable, "-u", "-c", _CHILD_SCRIPT],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        line = proc.stdout.readline().decode().strip()
        names = [n.lstrip("/") for n in line.split(";") if n]
        assert names, proc.stderr.read().decode() if proc.poll() else line
        return proc, names

    @staticmethod
    def _segment_exists(name):
        from pathlib import Path

        return (Path("/dev/shm") / name).exists()

    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_signal_death_cleans_segments(self, signame):
        import signal

        proc, names = self._spawn_child()
        assert all(self._segment_exists(n) for n in names)
        proc.send_signal(getattr(signal, signame))
        proc.wait(timeout=30)
        assert proc.returncode != 0
        leaked = [n for n in names if self._segment_exists(n)]
        assert not leaked, f"{signame} leaked segments: {leaked}"

    def test_sigkill_still_leaks(self):
        # The documented residual hole: SIGKILL runs no handlers, so the
        # segments survive the process. (Resume-time reclamation in
        # core/runlog.py is the layer that closes this one.)
        import signal
        from multiprocessing import shared_memory

        proc, names = self._spawn_child()
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        leaked = [n for n in names if self._segment_exists(n)]
        try:
            assert leaked == names
        finally:
            for name in leaked:
                seg = shared_memory.SharedMemory(name=name)
                try:
                    seg.unlink()
                finally:
                    seg.close()


class TestIntSpan:
    """The tree join probes CSR lists through ``int_span()``."""

    def _collection(self):
        return SetCollection([[0, 1], [0, 2, 5], [1, 2], [0, 1, 2, 5]])

    def test_spans_match_the_lists_and_yield_python_ints(self):
        from repro.index.inverted import InvertedIndex
        from repro.index.storage import CSRInvertedIndex, HybridInvertedIndex

        data = self._collection()
        ref = InvertedIndex.build(data)
        for index in (ref, CSRInvertedIndex.build(data), HybridInvertedIndex.build(data)):
            for element in range(-1, 8):
                seq, lo, hi = index.int_span(element)
                got = [seq[i] for i in range(lo, hi)]
                assert got == list(ref.lists.get(element, ())), element
                assert all(type(sid) is int for sid in got)

    def test_one_view_per_index(self):
        from repro.index.storage import CSRInvertedIndex

        index = CSRInvertedIndex.build(self._collection())
        assert index.int_span(0)[0] is index.int_span(2)[0]
        other = CSRInvertedIndex.build(self._collection())
        assert other.int_span(0)[0] is not index.int_span(0)[0]

    @pytest.mark.parametrize("backend", ["csr", "hybrid"])
    def test_close_unmaps_the_segments_under_a_bound_tree(self, backend):
        """close() releases the index's views, which the tree joined against
        it still holds, before it unmaps the segments: afterwards the tree
        holds released views, not pointers into unmapped memory."""
        from repro.core.order import build_order
        from repro.core.results import PairListSink
        from repro.core.tree_join import tree_join
        from repro.index.prefix_tree import PrefixTree
        from repro.index.storage import CSRInvertedIndex, HybridInvertedIndex

        cls = HybridInvertedIndex if backend == "hybrid" else CSRInvertedIndex
        s = SetCollection([[0, i % 5 + 1, i % 3 + 6] for i in range(40)])
        r = SetCollection([[0], [0, 1], [0, 2, 7], [4, 9]])
        order = build_order(s, universe=10)
        tree = PrefixTree.build(r, order)
        handle = cls.build(s).to_shared_memory()
        try:
            attached = cls.from_shared_memory(handle)
            shms = attached._shms
            sink, expected = PairListSink(), PairListSink()
            tree_join(r, s, sink, index=attached, tree=tree, order=order,
                      backend=backend)
            tree_join(r, s, expected)
            assert sink.sorted_pairs() == expected.sorted_pairs()
            bound = {id(node.inv): node.inv for node in tree.iter_nodes()
                     if isinstance(node.inv, memoryview)}
            assert len(bound) == 1  # every node shares the index's one view
            attached.close()
            assert all(shm._buf is None for shm in shms)
            (view,) = bound.values()
            assert repr(view).startswith("<released memory")
        finally:
            handle.cleanup()
