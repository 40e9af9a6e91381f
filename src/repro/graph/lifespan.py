"""Lifespan analysis and entity-group relations (paper §4.1, Figure 6).

The lifespan of an entity group in a session is the interval between its
first and last log message.  Two groups are related by:

* ``PARENT`` — a's lifespan contains b's in *every* session where both
  appear (b depends on a);
* ``BEFORE`` — a ends before b starts in every such session;
* ``PARALLEL`` — otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

PARENT = "PARENT"
CHILD = "CHILD"
BEFORE = "BEFORE"
AFTER = "AFTER"
PARALLEL = "PARALLEL"
EQUAL = "EQUAL"

#: Relation of the first group of a pair towards the second, indexed by
#: the one-byte code :func:`session_relations` emits.
RELATION_CODES = (PARENT, CHILD, EQUAL, BEFORE, AFTER, PARALLEL)
_PARENT, _CHILD, _EQUAL, _BEFORE, _AFTER, _PARALLEL = range(6)


@dataclass(frozen=True, slots=True)
class Lifespan:
    """Closed time interval ``[start, end]`` of a group's activity.

    Both endpoints are inclusive: they are the timestamps of the group's
    first and last log message in the session, and both messages belong
    to the group.  Boundary semantics (shared by training-side
    :meth:`RelationMatrix.observe_session` and detection-side
    ``_check_hierarchy`` — they must agree, or relations learned in
    training are unenforceable at detection time):

    * :meth:`contains` is closed on both ends — a group whose first/last
      messages coincide with its parent's is still contained;
    * :meth:`precedes` accepts touching intervals (``end <= start``) — a
      handoff logged at the same timestamp still orders the groups.
    """

    start: float
    end: float

    def contains(self, other: "Lifespan") -> bool:
        return self.start <= other.start and other.end <= self.end

    def strictly_contains(self, other: "Lifespan") -> bool:
        return self.contains(other) and (
            self.start < other.start or other.end < self.end
        )

    def precedes(self, other: "Lifespan") -> bool:
        return self.end <= other.start


class RelationMatrix:
    """Pairwise relations between entity groups, aggregated over sessions.

    Feed one session at a time via :meth:`observe_session`; query final
    relations via :meth:`relation`.
    """

    def __init__(self, min_support: int = 5) -> None:
        # (a, b) -> per-relation observation counts across sessions, with
        # a, b in lexicographic order and the relation one of PARENT /
        # CHILD / BEFORE / AFTER / PARALLEL / EQUAL.
        self._observations: dict[tuple[str, str], dict[str, int]] = {}
        self._groups: set[str] = set()
        #: Minimum co-occurring sessions before a directional relation
        #: (PARENT/BEFORE) is trusted; fewer observations give PARALLEL.
        #: Guards against spurious orderings learned from scarce training
        #: data (the paper's own false-positive analysis, §6.4).
        self.min_support = min_support

    def observe_session(self, lifespans: Mapping[str, Lifespan]) -> None:
        """Record the pairwise relations implied by one session."""
        self.observe_relations(sorted(lifespans), session_relations(lifespans))

    def observe_relations(self, names: Sequence[str], codes: bytes) -> None:
        """Fold one session's pre-classified pair relations.

        ``names`` are the session's group labels in sorted order and
        ``codes`` is :func:`session_relations` of its lifespans: one
        relation code per pair of ``names``, in sorted-pair order (a
        length mismatch raises ``ValueError``).
        """
        self._groups.update(names)
        observations = self._observations
        for pair, code in zip(combinations(names, 2), codes, strict=True):
            rel = RELATION_CODES[code]
            counts = observations.get(pair)
            if counts is None:
                observations[pair] = {rel: 1}
            else:
                counts[rel] = counts.get(rel, 0) + 1

    @property
    def groups(self) -> set[str]:
        return set(self._groups)

    def relation(self, a: str, b: str) -> str:
        """Final relation of ``a`` towards ``b`` (Figure 6 semantics).

        PARENT/BEFORE require agreement in every co-occurring session
        (EQUAL observations are compatible with either); any disagreement
        collapses to PARALLEL.
        """
        if a == b:
            return "SELF"
        swap = a > b
        key = (b, a) if swap else (a, b)
        observed = self._observations.get(key)
        if not observed:
            return PARALLEL
        if sum(observed.values()) < self.min_support:
            return PARALLEL
        effective = {rel for rel in observed if rel != EQUAL}
        if not effective:
            return PARALLEL
        if len(effective) == 1:
            rel = next(iter(effective))
            if swap:
                rel = {PARENT: CHILD, CHILD: PARENT,
                       BEFORE: AFTER, AFTER: BEFORE,
                       PARALLEL: PARALLEL}[rel]
            return rel
        return PARALLEL

    def relations_of(self, group: str) -> dict[str, str]:
        """Relations from ``group`` to every other observed group."""
        return {
            other: self.relation(group, other)
            for other in sorted(self._groups)
            if other != group
        }

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """Round-trippable form (see :meth:`from_dict`)."""
        return {
            "min_support": self.min_support,
            "groups": sorted(self._groups),
            "observations": [
                [a, b, {rel: count for rel, count in sorted(
                    counts.items()
                )}]
                for (a, b), counts in sorted(self._observations.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RelationMatrix":
        matrix = cls(min_support=int(data.get("min_support", 5)))
        matrix._groups.update(data.get("groups", ()))
        for a, b, counts in data.get("observations", ()):
            matrix._observations[(a, b)] = {
                rel: int(count) for rel, count in counts.items()
            }
        return matrix


def session_relations(lifespans: Mapping[str, Lifespan]) -> bytes:
    """Classify every group pair of one session (pure).

    One code (an index into :data:`RELATION_CODES`) per pair ``(a, b)``
    of the sorted group labels, ``a < b``, in sorted-pair order — the
    order :func:`itertools.combinations` yields them in — giving ``a``'s
    relation towards ``b``.
    """
    spans = [lifespans[name] for name in sorted(lifespans)]
    codes = bytearray()
    for i, la in enumerate(spans):
        for lb in spans[i + 1:]:
            if la.strictly_contains(lb):
                code = _PARENT
            elif lb.strictly_contains(la):
                code = _CHILD
            elif la.contains(lb) and lb.contains(la):
                # Identical lifespans (checked before BEFORE/AFTER so
                # zero-width intervals do not read as orderings); a
                # dedicated mark that does not break a consistent
                # PARENT vote from other sessions.
                code = _EQUAL
            elif la.precedes(lb):
                # Same boundary as detection-side _check_hierarchy:
                # touching spans (la.end == lb.start) count as ordered.
                # The EQUAL branch above already caught identical (incl.
                # zero-width) lifespans, so the two precedes tests cannot
                # both be true here.
                code = _BEFORE
            elif lb.precedes(la):
                code = _AFTER
            else:
                code = _PARALLEL
            codes.append(code)
    return bytes(codes)


def session_lifespans(
    group_messages: Mapping[str, Iterable[float]],
) -> dict[str, Lifespan]:
    """Compute lifespans from per-group message timestamps of one session."""
    spans: dict[str, Lifespan] = {}
    for group, stamps in group_messages.items():
        times = list(stamps)
        if times:
            spans[group] = Lifespan(min(times), max(times))
    return spans
