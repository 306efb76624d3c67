"""Keyword publish/subscribe matching on top of the containment machinery.

The paper's §I second application: "if the keywords subscribed to by a
user and the words in an article are modeled as the sets, then the set
containment determines if an article aligns with the user's interests".
A :class:`Broker` fires a subscription (a keyword set) when **all** of
its keywords appear in a published event. Keywords are encoded through an
:class:`~repro.data.collection.ElementDictionary`, and every subscription
is inserted eagerly into an
:class:`~repro.index.prefix_tree.IncrementalPrefixTree` under its
subscription id (both id spaces are dense and monotone). Matching is that
trie's subset walk, whose cost follows the part of the tree the event's
keywords cover, not the number of subscriptions. Cancellations are the
trie's tombstones, compacted away once they exceed ``compact_ratio`` of
the live subscriptions (amortised O(1) per cancel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional

from ..data.collection import ElementDictionary
from ..errors import InvalidParameterError
from ..index.prefix_tree import IncrementalPrefixTree, TrieSnapshot
from ..obs import registry as _obs
from ..obs.spans import trace_span

__all__ = ["Broker", "Subscription", "Delivery"]


@dataclass(frozen=True)
class Subscription:
    """One registered interest: fires when every keyword is in the event."""

    sub_id: int
    keywords: frozenset

    def __post_init__(self):
        if not self.keywords:
            raise InvalidParameterError("a subscription needs at least one keyword")


@dataclass
class Delivery:
    """The outcome of one publish."""

    event_keywords: frozenset
    matched: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.matched)


class Broker:
    """Subscription registry + matcher."""

    def __init__(self, compact_ratio: float = 0.5):
        self._dictionary = ElementDictionary()
        self._subscriptions: Dict[int, Subscription] = {}
        # Compaction is driven here, not by the trie, so it can be counted
        # and traced under the broker's own names.
        self._trie = IncrementalPrefixTree(compact_ratio, auto_compact=False)
        self.published = 0
        self.delivered = 0

    # -- subscription management -------------------------------------------

    def subscribe(self, keywords: Iterable[Hashable]) -> int:
        """Register a subscription; returns its id."""
        sub = Subscription(self._trie.next_rid, frozenset(keywords))
        self._trie.insert(
            [self._dictionary.encode(k) for k in sub.keywords], rid=sub.sub_id
        )
        self._subscriptions[sub.sub_id] = sub
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("pubsub.subscribed")
        return sub.sub_id

    def unsubscribe(self, sub_id: int) -> None:
        """Cancel a subscription.

        A clean no-op for ids that were never issued or were already
        cancelled, so a second cancel never counts a second tombstone or
        triggers a compaction. Safe to call from within a :meth:`publish`
        delivery: the walk has already finished, and a compaction swaps in
        a new tree rather than editing the walked one.
        """
        if self._subscriptions.pop(sub_id, None) is None:
            return
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("pubsub.unsubscribed")
        self._trie.mark_dead(sub_id)
        if self._trie.needs_compaction:
            with trace_span("pubsub.rebuild"):
                self._trie.compact()
            if reg is not None:
                reg.inc("pubsub.rebuilds")

    def __len__(self) -> int:
        return len(self._subscriptions)

    @property
    def subscriptions(self) -> Dict[int, Subscription]:
        """Live subscriptions by id (do not mutate)."""
        return self._subscriptions

    @property
    def trie(self) -> IncrementalPrefixTree:
        """The subscription trie (for footprint metering; do not mutate)."""
        return self._trie

    # -- matching --------------------------------------------------------------

    def publish(self, keywords: Iterable[Hashable]) -> Delivery:
        """Match one event against all live subscriptions."""
        event = frozenset(keywords)
        self.published += 1
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("pubsub.published")
        encode = self._dictionary.encode_existing
        ids = [eid for eid in map(encode, event) if eid is not None]
        # The walk over the pinned snapshot completes before delivery, so a
        # handler that subscribes or cancels reentrantly never mutates a
        # tree under a traversal; a reentrant subscribe is seen by the
        # next publish, not this one.
        walked = self._trie.snapshot()
        matched = self._deliverable(walked.subsets_of(ids), walked)
        self.delivered += len(matched)
        if reg is not None:
            reg.inc("pubsub.delivered", len(matched))
        return Delivery(event, matched)

    # -- serialization -------------------------------------------------------

    def dump_state(self) -> Dict[str, object]:
        """The exact logical state as JSON-serializable primitives.

        ``keywords`` lists the dictionary's vocabulary in id order, so the
        restored broker assigns the same encoded id to every keyword
        regardless of hash-iteration order in the restoring process.
        ``trie`` is the subscription trie's own dump; the live
        subscriptions are its live paths, decoded.
        """
        return {
            "keywords": [
                self._dictionary.decode(eid)
                for eid in range(len(self._dictionary))
            ],
            "published": self.published,
            "delivered": self.delivered,
            "trie": self._trie.dump_state(),
        }

    @classmethod
    def restore_state(
        cls, payload: Dict[str, object], *, compact_ratio: float = 0.5
    ) -> "Broker":
        """Rebuild the exact broker a :meth:`dump_state` payload captured."""
        broker = cls(compact_ratio)
        dictionary = broker._dictionary
        for keyword in payload["keywords"]:  # type: ignore[union-attr]
            dictionary.encode(keyword)
        broker.published = int(payload["published"])  # type: ignore[arg-type]
        broker.delivered = int(payload["delivered"])  # type: ignore[arg-type]
        trie_state: Dict[str, Any] = payload["trie"]  # type: ignore[assignment]
        broker._trie = IncrementalPrefixTree.restore_state(
            trie_state, compact_ratio=compact_ratio, auto_compact=False
        )
        dead = set(trie_state["dead"])
        subscriptions: Dict[int, Subscription] = {}
        for prefix, rids in trie_state["paths"]:
            keywords = frozenset(dictionary.decode(int(e)) for e in prefix)
            for rid in rids:
                if rid not in dead:
                    subscriptions[int(rid)] = Subscription(int(rid), keywords)
        broker._subscriptions = dict(sorted(subscriptions.items()))
        return broker

    def _deliverable(self, candidates: List[int], walked: TrieSnapshot) -> List[int]:
        # The seam delivery goes through after the walk; kept as a method
        # so delivery-time cancellation (tests included) has a defined
        # interception point. The snapshot already dropped ids cancelled
        # before the walk, so the candidates are re-checked against the
        # registry only when a cancel has landed since (a lookup per
        # candidate in a million-entry registry costs more than the walk).
        trie = self._trie
        if trie.epoch == walked.epoch and trie.dead_count == walked.dead_mark:
            return candidates
        subscriptions = self._subscriptions
        return [sid for sid in candidates if sid in subscriptions]

    def matches(self, keywords: Iterable[Hashable]) -> List[int]:
        """Like :meth:`publish` but without touching the counters.

        Both counter systems are restored: the instance tallies
        (``published``/``delivered``) and the registry's
        ``pubsub.published``/``pubsub.delivered`` — restore-or-delete, so
        a probe on a fresh registry leaves no zero-valued entries behind.
        Counters of real state changes (a reentrant cancel's compaction)
        still count.
        """
        saved_published, saved_delivered = self.published, self.delivered
        reg = _obs.ACTIVE
        saved_counts: Dict[str, Optional[float]] = {}
        if reg is not None:
            saved_counts = {
                name: reg.counters.get(name)
                for name in ("pubsub.published", "pubsub.delivered")
            }
        try:
            delivery = self.publish(keywords)
        finally:
            self.published, self.delivered = saved_published, saved_delivered
            if reg is not None:
                for name, value in saved_counts.items():
                    if value is None:
                        reg.counters.pop(name, None)
                    else:
                        reg.counters[name] = value
        return delivery.matched

