"""Assorted edge cases that don't belong to any one module's suite."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro import SetCollection, set_containment_join
from repro.baselines.piejoin import PieIndex
from repro.core.order import build_order
from repro.core.results import PairListSink


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "workloads"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "flickr" in proc.stdout


class TestDegenerateInputs:
    def test_pie_index_empty_collection(self):
        empty = SetCollection([], validate=False)
        index = PieIndex(empty, build_order(empty, universe=1))
        assert index.flat_sids == []
        assert index.root_interval == (0, 0)

    def test_join_both_sides_empty(self):
        empty = SetCollection([], validate=False)
        for method in ("lcjoin", "piejoin", "dcj", "ttjoin"):
            assert set_containment_join(empty, empty, method=method) == []

    def test_huge_single_set(self):
        """One very large set on each side exercises the chain fast path."""
        big = list(range(5000))
        r = SetCollection([big])
        s = SetCollection([big])
        assert set_containment_join(r, s) == [(0, 0)]

    def test_framework_all_r_elements_missing(self):
        from repro.core.framework import framework_join

        r = SetCollection([[100], [200, 300]])
        s = SetCollection([[0, 1]])
        sink = PairListSink()
        framework_join(r, s, sink)
        assert sink.pairs == []


class TestEmptyRecords:
    """``validate=False`` admits empty records; the empty set is contained
    in every set, so every method must give the naive join's answer."""

    CASES = [
        ([[], [1]], [[1, 2], [3]]),
        ([[], [1], [1, 2]], [[1, 2], [], [3]]),
        ([[1], [2]], [[], [1, 2]]),
        ([[]], [[]]),
        ([[], [0]], []),
        ([[0, 5], [], []], [[0, 5], [1]]),
    ]

    def test_max_element_skips_empty_records(self):
        assert SetCollection([[], [4], []], validate=False).max_element() == 4
        assert SetCollection([[]], validate=False).max_element() == -1

    @pytest.mark.parametrize("r_records,s_records", CASES)
    def test_every_method_and_backend_equals_naive(self, r_records, s_records):
        from repro.core.api import BACKEND_METHODS, BACKENDS, join_methods

        r = SetCollection(r_records, validate=False)
        s = SetCollection(s_records, validate=False)
        expected = sorted(set_containment_join(r, s, method="naive"))
        for method in join_methods():
            backends = BACKENDS if method in BACKEND_METHODS else ("python",)
            for backend in backends:
                pairs = set_containment_join(r, s, method=method, backend=backend)
                assert sorted(pairs) == expected, (method, backend)


class TestSinkEdgeBehaviour:
    def test_pair_order_is_ascending_sid_per_rid_for_framework(self):
        """The framework enumerates each record's supersets in ascending
        sid order — a documented, test-pinned property consumers rely on."""
        r = SetCollection([[0]])
        s = SetCollection([[0], [0, 1], [0, 2]])
        pairs = set_containment_join(r, s, method="framework")
        assert pairs == [(0, 0), (0, 1), (0, 2)]

    def test_tree_emits_in_ascending_sid_order_globally(self):
        r = SetCollection([[0], [1]])
        s = SetCollection([[0, 1]] * 3)
        pairs = set_containment_join(r, s, method="tree")
        sids = [sid for __, sid in pairs]
        assert sids == sorted(sids)


class TestUnicodeAndOddTokens:
    def test_string_elements_with_unicode(self):
        r = SetCollection.from_iterable([{"café", "naïve"}])
        s = SetCollection.from_iterable(
            [{"café", "naïve", "jalapeño"}], dictionary=r.dictionary
        )
        assert set_containment_join(r, s) == [(0, 0)]

    def test_mixed_type_elements(self):
        r = SetCollection.from_iterable([{1, "one"}])
        s = SetCollection.from_iterable(
            [{1, "one", 2.5}], dictionary=r.dictionary
        )
        assert set_containment_join(r, s) == [(0, 0)]
