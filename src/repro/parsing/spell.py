"""Spell: streaming structured log-key extraction (Du & Li, ICDM'17).

IntelLog's first stage (paper §2.1) uses Spell to abstract raw log messages
into *log keys*: the constant text of the printing statement with every
variable field replaced by an asterisk.  This module implements the
streaming algorithm — for each incoming message, find the existing key with
the longest common subsequence (LCS) above a threshold and merge, otherwise
create a new key.

The matching threshold follows the IntelLog implementation: a message of
``n`` tokens matches a key when ``|LCS| >= n / t`` with the empirically set
``t = 1.7`` (paper §5).  The original Spell paper uses ``t = 2``.

Matching is tiered (ROADMAP 2 — "as fast as the hardware allows"):

1. **exact** — the masked message aligns greedily against a known
   template; resolved by a :class:`~repro.parsing.index.TemplateIndex`
   trie walk in near-O(message length), with most-specific-wins
   (most constants, then lowest key index) tie-breaking;
2. **lcs** — drift fallback: an LCS similarity scan over the keys that
   share at least one constant token with the message;
3. **miss** — no key shares a constant token.  Because an LCS above the
   threshold needs at least one common constant, such messages provably
   cannot match and the scan is skipped entirely (the old code paid a
   full-key-set LCS scan here).

The tiers are observable via ``spell_index_hits_total{path=...}`` and the
per-path ``spell_match_seconds`` histogram.  The differential parity
harness (``tests/test_match_parity.py``) proves the tiered matcher
returns results identical to the original full scan.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from ..nlp.tokenizer import STAR, mask_message
from .index import TemplateIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry

log = logging.getLogger(__name__)


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of token lists ``a``, ``b``."""
    if not a or not b:
        return 0
    # Single-row DP; O(len(a) * len(b)).
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            if x == y:
                curr[j] = prev[j - 1] + 1
            else:
                curr[j] = max(prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


def lcs_merge(a: Sequence[str], b: Sequence[str]) -> list[str]:
    """Merge two token sequences into a template.

    Tokens on the LCS are kept; any gap (tokens unique to either side)
    becomes a single ``*``.  Existing ``*`` tokens never participate in the
    LCS, so variable positions stay variable.
    """
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if a[i] == b[j] and a[i] != STAR:
                dp[i][j] = dp[i + 1][j + 1] + 1
            else:
                dp[i][j] = max(dp[i + 1][j], dp[i][j + 1])
    result: list[str] = []
    i = j = 0

    def emit_star() -> None:
        if not result or result[-1] != STAR:
            result.append(STAR)

    while i < n and j < m:
        if a[i] == b[j] and a[i] != STAR:
            result.append(a[i])
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            emit_star()
            i += 1
        else:
            emit_star()
            j += 1
    if i < n or j < m:
        emit_star()
    return result


@dataclass(slots=True)
class LogKey:
    """A log key: template tokens plus bookkeeping.

    ``sample`` is the first raw message that created the key; IntelLog feeds
    the sample (not the starred template) to the POS tagger (§3, Figure 3).
    """

    key_id: str
    tokens: list[str]
    sample: str
    count: int = 0
    line_ids: list[int] = field(default_factory=list)

    @property
    def template(self) -> str:
        return " ".join(self.tokens)

    def constant_tokens(self) -> list[str]:
        return [t for t in self.tokens if t != STAR]

    def __str__(self) -> str:  # pragma: no cover
        return f"{self.key_id}: {self.template}"


@dataclass(slots=True)
class MatchResult:
    """Result of matching one message against the key set."""

    key: LogKey
    #: Values captured by each ``*`` position, in template order.  One star
    #: may capture several adjacent tokens (joined by a space).
    parameters: list[str]
    #: True when the message matched the key by LCS similarity but could
    #: not be aligned against its template, so ``parameters`` is empty
    #: despite the raw message carrying variable fields.  Callers that
    #: care about parameter-level checks should treat such matches as
    #: parameter-free rather than parameter-less-by-construction.
    misaligned: bool = False
    #: Raw token texts of the matched message (tokenizer output), so
    #: downstream extraction can reuse them instead of re-tokenizing.
    raw_tokens: list[str] | None = None


#: Match-path labels (``spell_index_hits_total{path=...}``).
PATH_EXACT = "exact"
PATH_LCS = "lcs"
PATH_MISS = "miss"


class _SpellMetrics:
    """Registry handles for one instrumented :class:`SpellParser`."""

    __slots__ = (
        "match_attempts", "lcs_comparisons", "keys", "match_seconds",
        "param_misaligned", "index_hits",
    )

    def __init__(self, registry: "MetricsRegistry") -> None:
        self.match_attempts = registry.counter(
            "spell_match_attempts_total",
            "Detection-side match() calls by result (hit/miss).",
        )
        self.lcs_comparisons = registry.counter(
            "spell_lcs_comparisons_total",
            "LCS similarity computations performed while matching.",
        )
        self.keys = registry.gauge(
            "spell_keys",
            "Log keys currently known to the parser.",
        )
        self.match_seconds = registry.histogram(
            "spell_match_seconds",
            "Latency of one match() call, by path (exact/lcs/miss).",
        )
        self.param_misaligned = registry.counter(
            "spell_param_misaligned_total",
            "Matches whose raw message could not be aligned against the "
            "matched template (parameters dropped), by key.",
        )
        self.index_hits = registry.counter(
            "spell_index_hits_total",
            "Matches resolved per path: exact (trie walk), lcs (drift "
            "fallback scan), miss (no shared constant token).",
        )


class SpellParser:
    """Streaming log-key extractor.

    Usage::

        parser = SpellParser()
        for message in stream:
            key = parser.consume(message)
        parser.keys()  # all discovered log keys
    """

    def __init__(self, tau: float = 1.7) -> None:
        if tau <= 1.0:
            raise ValueError("tau must be > 1 (match if |LCS| >= n/tau)")
        self.tau = tau
        self._keys: list[LogKey] = []
        self._next_id = 0
        self._line_counter = 0
        # Inverted index: constant token -> key indices.  Prunes the LCS
        # fallback and proves misses without scanning (an LCS match
        # needs at least one shared constant token).
        self._token_index: dict[str, set[int]] = {}
        # Exact-template trie: masked sequence -> aligned key indices.
        self._index = TemplateIndex()
        # Index of the reserved all-variable key, once created.
        self._reserved_idx: int | None = None
        self._metrics: _SpellMetrics | None = None
        # Keys already warned about for template/raw misalignment (the
        # log line fires once per key; the counter counts every event).
        self._misaligned_keys: set[str] = set()

    def instrument(self, registry: "MetricsRegistry") -> "SpellParser":
        """Attach metrics (idempotent); returns ``self`` for chaining."""
        self._metrics = _SpellMetrics(registry)
        self._metrics.keys.set(len(self._keys))
        return self

    def view(self) -> "SpellParser":
        """A detection-only view sharing this parser's learned keys.

        The view aliases ``_keys`` and both match indexes (token
        postings and the exact-template trie) — the structures that are
        immutable once training ends — while owning its instrumentation
        and misalignment bookkeeping, so several tenants can
        :meth:`match` against one in-memory model without their metrics
        clobbering each other.  Views must never :meth:`consume` (that
        would mutate the shared key list under every other view's
        feet); the serving layer only calls ``match``.
        """
        clone = SpellParser.__new__(SpellParser)
        clone.tau = self.tau
        clone._keys = self._keys
        clone._token_index = self._token_index
        clone._index = self._index
        clone._reserved_idx = self._reserved_idx
        clone._next_id = self._next_id
        clone._line_counter = self._line_counter
        clone._metrics = None
        clone._misaligned_keys = set()
        return clone

    # -- training ----------------------------------------------------------

    def consume(self, message: str) -> LogKey:
        """Process one message, returning the (possibly new) log key."""
        seq, _ = mask_message(message)
        self._line_counter += 1
        if not [t for t in seq if t != STAR]:
            # Messages with no constant tokens (empty or all-variable)
            # share one reserved key; they carry no template information.
            best = self._reserved_key()
            if best is None:
                best = LogKey(
                    key_id=f"K{self._next_id}", tokens=list(seq),
                    sample=message,
                )
                self._next_id += 1
                self._keys.append(best)
                self._reserved_idx = len(self._keys) - 1
            best.count += 1
            best.line_ids.append(self._line_counter)
            return best
        best_idx, _path = self._find_best_idx(seq)
        if best_idx is None:
            key = LogKey(
                key_id=f"K{self._next_id}",
                tokens=list(seq),
                sample=message,
            )
            self._next_id += 1
            self._keys.append(key)
            self._index_key(len(self._keys) - 1, key)
        else:
            key = self._keys[best_idx]
            merged = lcs_merge(key.tokens, seq)
            if merged != key.tokens:
                old_tokens = key.tokens
                key.tokens = merged
                self._update_key_index(best_idx, old_tokens, merged)
        key.count += 1
        key.line_ids.append(self._line_counter)
        if self._metrics is not None:
            self._metrics.keys.set(len(self._keys))
        return key

    def consume_all(self, messages: Iterable[str]) -> list[LogKey]:
        return [self.consume(m) for m in messages]

    # -- lookup (detection phase; never creates keys) ------------------------

    def match(self, message: str) -> MatchResult | None:
        """Match a message against the learned keys without mutating them."""
        metrics = self._metrics
        if metrics is None:
            result, _path = self._match_core(message)
            if result is not None and result.misaligned:
                self._note_misalignment(result.key)
            return result
        start = time.perf_counter()
        result, path = self._match_core(message)
        metrics.match_seconds.labels(path=path).observe(
            time.perf_counter() - start
        )
        metrics.index_hits.labels(path=path).inc()
        metrics.match_attempts.labels(
            result="hit" if result is not None else "miss"
        ).inc()
        if result is not None and result.misaligned:
            self._note_misalignment(result.key)
        return result

    def match_batch(
        self, messages: Sequence[str]
    ) -> list[MatchResult | None]:
        """Match many messages in one call, amortizing per-record cost.

        Identical per-message results to :meth:`match` (the differential
        parity harness asserts this), with batch-level savings:
        duplicate messages within the batch are matched once (valid
        because matching never mutates the key set), and instrumentation
        is flushed once per batch instead of per record — counters are
        still advanced per *record*, and per-record latency is reported
        as the batch's amortized cost, so counter semantics are
        unchanged.  Must not run concurrently with :meth:`consume`.
        """
        metrics = self._metrics
        # Batch-scoped memo for the masked-form lookup: distinct
        # messages collapse onto very few masked sequences (the
        # variable fields are exactly what varies), so most distinct
        # messages skip the trie walk too.  Safe because matching never
        # mutates the key set.
        find_memo: dict[tuple[str, ...], tuple[int | None, str]] = {}
        if metrics is None:
            memo: dict[str, MatchResult | None] = {}
            out: list[MatchResult | None] = []
            for message in messages:
                result = memo.get(message, _UNSEEN)
                if result is _UNSEEN:
                    result, _path = self._match_core(message, find_memo)
                    memo[message] = result
                if result is not None and result.misaligned:
                    self._note_misalignment(result.key)
                out.append(result)
            return out
        start = time.perf_counter()
        seen: dict[str, tuple[MatchResult | None, str]] = {}
        out = []
        paths: dict[str, int] = {}
        hits = 0
        misaligned: list[LogKey] = []
        for message in messages:
            entry = seen.get(message)
            if entry is None:
                entry = self._match_core(message, find_memo)
                seen[message] = entry
            result, path = entry
            out.append(result)
            paths[path] = paths.get(path, 0) + 1
            if result is not None:
                hits += 1
                if result.misaligned:
                    misaligned.append(result.key)
        elapsed = time.perf_counter() - start
        n = len(messages)
        if n:
            amortized = elapsed / n
            for path, count in paths.items():
                metrics.match_seconds.labels(path=path).observe_many(
                    amortized, count
                )
                metrics.index_hits.labels(path=path).inc(count)
        if hits:
            metrics.match_attempts.labels(result="hit").inc(hits)
        if n - hits:
            metrics.match_attempts.labels(result="miss").inc(n - hits)
        for key in misaligned:
            self._note_misalignment(key)
        return out

    def _match_core(
        self,
        message: str,
        find_memo: dict[tuple[str, ...], tuple[int | None, str]]
        | None = None,
    ) -> tuple[MatchResult | None, str]:
        """Uninstrumented match returning ``(result, path)``.

        ``path`` labels how the match resolved: ``exact`` (trie walk,
        including the reserved all-variable key — a constant-time
        branch), ``lcs`` (drift fallback scan) or ``miss``.
        ``find_memo`` (batch-scoped) caches ``_find_best_idx`` results
        by masked sequence.
        """
        masked, raw = mask_message(message)
        if not [t for t in masked if t != STAR]:
            reserved = self._reserved_key()
            if reserved is None:
                return None, PATH_MISS
            return (
                MatchResult(
                    key=reserved, parameters=list(raw), raw_tokens=raw
                ),
                PATH_EXACT,
            )
        if find_memo is None:
            best_idx, path = self._find_best_idx(masked)
        else:
            form = tuple(masked)
            cached = find_memo.get(form)
            if cached is None:
                cached = self._find_best_idx(masked)
                find_memo[form] = cached
            best_idx, path = cached
        if best_idx is None:
            return None, path
        key = self._keys[best_idx]
        params = extract_parameters(key.tokens, raw)
        if params is None:
            # The similarity scan said the message belongs to this key,
            # but the greedy aligner could not map its raw tokens onto
            # the template (usually a template that drifted during
            # training).  The parameters are unknowable, not absent —
            # flag it instead of silently pretending the message
            # carried none.  (Exact-path matches align the *masked*
            # sequence by construction, but the raw sequence can still
            # disagree when a variable field tokenized differently.)
            return (
                MatchResult(
                    key=key, parameters=[], misaligned=True,
                    raw_tokens=raw,
                ),
                path,
            )
        return (
            MatchResult(key=key, parameters=params, raw_tokens=raw),
            path,
        )

    def _note_misalignment(self, key: LogKey) -> None:
        if self._metrics is not None:
            self._metrics.param_misaligned.labels(key=key.key_id).inc()
        if key.key_id not in self._misaligned_keys:
            self._misaligned_keys.add(key.key_id)
            log.warning(
                "parameter extraction misaligned for key %s (template %r); "
                "parameters dropped for such messages",
                key.key_id, key.template,
            )

    def keys(self) -> list[LogKey]:
        return list(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    # -- replay support (parallel training) ----------------------------------

    def rebuild_bookkeeping(
        self, line_ids_by_key: dict[str, list[int]], total_lines: int
    ) -> None:
        """Overwrite per-key occurrence bookkeeping after a form replay.

        The parallel trainer (:mod:`repro.parallel`) discovers log keys by
        consuming each *distinct masked form* once, then accounts for the
        duplicate occurrences in bulk: ``line_ids_by_key`` maps each key to
        the 1-based global line numbers of every message it matched, in any
        order (they are sorted here, matching the streaming parser's
        consumption-order append).
        """
        for key in self._keys:
            ids = sorted(line_ids_by_key.get(key.key_id, ()))
            key.line_ids = list(ids)
            key.count = len(ids)
        self._line_counter = total_lines

    # -- internals -----------------------------------------------------------

    def _reserved_key(self) -> LogKey | None:
        """The all-variable key, if one exists.

        The cached index is authoritative once set; a linear scan only
        runs when keys were restored without going through consume()
        (model deserialization calls :meth:`_reindex`, which re-derives
        the cache).
        """
        if self._reserved_idx is not None:
            return self._keys[self._reserved_idx]
        for idx, key in enumerate(self._keys):
            if not key.constant_tokens():
                self._reserved_idx = idx
                return key
        return None

    def _threshold(self, seq_len: int, template_len: int) -> float:
        # Similarity is measured against the shorter of the two sequences:
        # a message whose constant backbone is fully explained by a shorter
        # template must still match it (e.g. state-transition keys whose
        # long variable tails differ), which is how the IntelLog Spell
        # deployment behaves with its empirical t = 1.7 (paper §5).
        return min(seq_len, template_len) / self.tau

    def _find_best(self, seq: list[str]) -> LogKey | None:
        best_idx, _path = self._find_best_idx(seq)
        return None if best_idx is None else self._keys[best_idx]

    def _find_best_idx(
        self, seq: list[str]
    ) -> tuple[int | None, str]:
        """Best-matching key index for a masked sequence, plus the path.

        Tier 1: exact-template trie lookup; among aligned keys the most
        specific wins (most constants, then lowest key index — the same
        winner the old candidate scan produced).  Tier 2: LCS similarity
        scan over keys sharing at least one constant token, ascending by
        key index (first key reaching the maximal LCS wins).  No shared
        token means no key can reach the LCS threshold, so the miss path
        does no template work at all.
        """
        matches = self._index.lookup(seq)
        if matches:
            best_idx, best_consts = matches[0]
            for idx, n_consts in matches:
                if n_consts > best_consts:
                    best_idx, best_consts = idx, n_consts
            return best_idx, PATH_EXACT

        candidates: set[int] = set()
        for token in seq:
            postings = self._token_index.get(token)
            if postings:
                candidates |= postings
        if not candidates:
            return None, PATH_MISS
        best_idx = None
        best_len = 0
        lcs_calls = 0
        seq_tokens = set(seq)
        for idx in sorted(candidates):
            key = self._keys[idx]
            consts = key.constant_tokens()
            # Cheap upper bound prune.
            if min(len(consts), len(seq)) <= best_len:
                continue
            # Every LCS token is a template constant that occurs in the
            # message, so counting those bounds the LCS: a key whose
            # bound cannot reach the threshold (or beat the best) cannot
            # win, and its quadratic LCS is skipped.
            threshold = self._threshold(len(seq), len(key.tokens))
            bound = sum(1 for token in consts if token in seq_tokens)
            if bound <= best_len or bound < threshold:
                continue
            lcs_calls += 1
            common = lcs_length(consts, seq)
            if common >= threshold and common > best_len:
                best_idx, best_len = idx, common
        if lcs_calls and self._metrics is not None:
            self._metrics.lcs_comparisons.inc(lcs_calls)
        if best_idx is None:
            return None, PATH_MISS
        return best_idx, PATH_LCS

    def _index_key(self, idx: int, key: LogKey) -> None:
        for token in key.constant_tokens():
            self._token_index.setdefault(token, set()).add(idx)
        self._index.insert(idx, key.tokens)

    def _update_key_index(
        self, idx: int, old_tokens: list[str], new_tokens: list[str]
    ) -> None:
        """Incremental maintenance after a training-time template merge.

        Replaces the historical full ``_reindex()`` per merge: only the
        drifted key's postings and trie path move.  A property test
        asserts interleaved consume/merge sequences leave both indexes
        equal to a from-scratch rebuild.
        """
        old_consts = set(old_tokens) - {STAR}
        new_consts = set(new_tokens) - {STAR}
        for token in old_consts - new_consts:
            postings = self._token_index.get(token)
            if postings is not None:
                postings.discard(idx)
                if not postings:
                    del self._token_index[token]
        for token in new_consts - old_consts:
            self._token_index.setdefault(token, set()).add(idx)
        self._index.update(idx, old_tokens, new_tokens)

    def _reindex(self) -> None:
        """Full rebuild of both match indexes (and the reserved-key
        cache) from the key list — model deserialization, and the
        oracle the incremental-maintenance property tests compare
        against."""
        self._token_index.clear()
        self._index.rebuild(key.tokens for key in self._keys)
        self._reserved_idx = None
        for idx, key in enumerate(self._keys):
            for token in key.constant_tokens():
                self._token_index.setdefault(token, set()).add(idx)
            if self._reserved_idx is None and not key.constant_tokens():
                self._reserved_idx = idx


#: Sentinel distinguishing "not yet matched" from a memoized None.
_UNSEEN: object = object()


def extract_parameters(
    template: Sequence[str], seq: Sequence[str]
) -> list[str] | None:
    """Align ``seq`` against ``template``, returning the ``*`` captures.

    Greedy alignment: constant template tokens must appear in order in the
    message; tokens between them are assigned to the interleaved stars.
    Returns None when the message cannot be aligned.
    """
    captures: list[str] = []
    i = 0  # template position
    j = 0  # sequence position
    n, m = len(template), len(seq)
    while i < n:
        tok = template[i]
        if tok != STAR:
            if j < m and seq[j] == tok:
                i += 1
                j += 1
                continue
            return None
        # A star: capture up to the next constant token.
        nxt = i + 1
        while nxt < n and template[nxt] == STAR:
            nxt += 1
        if nxt == n:
            captures.append(" ".join(seq[j:]))
            return captures
        anchor = template[nxt]
        k = j
        while k < m and seq[k] != anchor:
            k += 1
        if k == m:
            return None
        captures.append(" ".join(seq[j:k]))
        i = nxt
        j = k
    if j != m:
        return None
    return captures
