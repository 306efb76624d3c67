"""Differential tests of the one subset walk against brute force.

:meth:`PrefixTree.subsets_of` serves subset queries
(:class:`TrieSnapshot`, :class:`ContainmentIndex`) and pubsub matching
(:class:`Broker`). Hypothesis drives it over identity and frequency
orders, frozen, child-mapped and Patricia-compressed trees, tombstones,
rid bounds and events holding unknown or out-of-range ids; a plain
``frozenset`` subset check predicts every answer.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.containment_index import ContainmentIndex
from repro.core.order import build_order
from repro.data.collection import SetCollection
from repro.index.prefix_tree import IncrementalPrefixTree, PrefixTree
from repro.pubsub.broker import Broker

record = st.lists(st.integers(0, 11), min_size=1, max_size=5)
collection = st.lists(record, min_size=1, max_size=25)
#: Events may hold ids past the universe and negative ids: neither can
#: occur in a stored set, and neither may crash or match anything.
event = st.lists(st.integers(-3, 20), max_size=10)

SETTINGS = settings(max_examples=150, deadline=None)


def brute(records, elements, live=None):
    have = frozenset(elements)
    return [
        rid
        for rid, rec in enumerate(records)
        if (live is None or rid in live) and frozenset(rec) <= have
    ]


@SETTINGS
@given(
    records=collection,
    events=st.lists(event, min_size=1, max_size=6),
    kind=st.sampled_from(["element_id", "freq_desc", "freq_asc"]),
    freeze=st.booleans(),
    compress=st.booleans(),
)
def test_prefix_tree_walk_matches_bruteforce(records, events, kind, freeze, compress):
    data = SetCollection(records)
    tree = PrefixTree.build(
        data, build_order(data, kind), compress=compress, freeze=freeze
    )
    for elements in events:
        assert tree.subsets_of(elements) == brute(data.records, elements)


@SETTINGS
@given(
    records=collection,
    kills=st.lists(st.integers(0, 30), max_size=12),
    late=st.lists(record, max_size=5),
    late_kills=st.lists(st.integers(0, 40), max_size=5),
    events=st.lists(event, min_size=1, max_size=6),
    compact=st.booleans(),
)
def test_trie_snapshot_matches_bruteforce(
    records, kills, late, late_kills, events, compact
):
    trie = IncrementalPrefixTree(compact_ratio=0.3, auto_compact=compact)
    stored = []
    for rec in records:
        trie.insert(rec)
        stored.append(rec)
    live = set(range(len(stored)))
    for rid in kills:
        assert trie.mark_dead(rid) == (rid in live)
        live.discard(rid)
    snap = trie.snapshot()
    pinned_live = set(live)
    # Writes after the snapshot: inserts past its rid bound, deletes
    # after its tombstone mark, possibly a compaction. None may leak in.
    for rec in late:
        trie.insert(rec)
        stored.append(rec)
        live.add(len(stored) - 1)
    for rid in late_kills:
        trie.mark_dead(rid)
        live.discard(rid)
    if compact:
        trie.compact()
    for elements in events:
        assert snap.subsets_of(elements) == brute(stored, elements, pinned_live)
        assert trie.subsets_of(elements) == brute(stored, elements, live)


@SETTINGS
@given(
    records=collection,
    added=st.lists(record, max_size=5),
    events=st.lists(event, min_size=1, max_size=6),
)
def test_containment_index_walk_matches_bruteforce(records, added, events):
    index = ContainmentIndex(SetCollection(records))
    stored = list(index.collection.records)
    for elements in events[:1]:
        # Build the tree before the adds so they take the insert path.
        assert index.subsets_of(elements) == brute(stored, elements)
    for rec in added:
        index.add(rec)
        stored.append(tuple(sorted(set(rec))))
    for elements in events:
        assert index.subsets_of(elements) == brute(stored, elements)


@SETTINGS
@given(
    subs=st.lists(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=4),
                  min_size=1, max_size=20),
    cancels=st.lists(st.integers(0, 25), max_size=15),
    events=st.lists(
        st.lists(st.sampled_from("abcdefghxyz"), max_size=8), min_size=1, max_size=6
    ),
)
def test_broker_matches_bruteforce(subs, cancels, events):
    broker = Broker(compact_ratio=0.3)
    live = {broker.subscribe(kws): frozenset(kws) for kws in subs}
    for sub_id in cancels:
        broker.unsubscribe(sub_id)
        live.pop(sub_id, None)
    for words in events:
        have = frozenset(words)
        expected = sorted(s for s, kws in live.items() if kws <= have)
        assert broker.publish(words).matched == expected


def test_snapshot_copies_no_tombstones():
    # Taking a snapshot is O(1): it shares the writer's tombstone map
    # rather than copying it, and later deletes stay invisible to it.
    trie = IncrementalPrefixTree(auto_compact=False)
    for i in range(50):
        trie.insert([i, i + 1])
    for rid in range(0, 50, 2):
        trie.mark_dead(rid)
    snap = trie.snapshot()
    assert snap.dead is trie.snapshot().dead
    trie.mark_dead(1)
    assert snap.subsets_of([1, 2]) == [1]
    assert trie.subsets_of([1, 2]) == []
