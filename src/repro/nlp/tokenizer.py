"""Log-aware tokenizer.

Log messages differ from free-form prose: they embed identifiers
(``attempt_01``), host:port localities (``host1:13562``), filesystem paths,
units glued to numbers (``4ms``), bracketed component prefixes
(``[fetcher #1]``) and the asterisk variable marker of log keys.  A standard
word tokenizer would shred these.  This tokenizer keeps such atoms intact
while still splitting ordinary punctuation, which is what the downstream POS
tagger and pattern extractors expect.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

# Atoms that must survive tokenization unsplit, tried in order.
_TOKEN_RE = re.compile(
    r"""
    (?P<path>   (?:hdfs://|file://|s3://)[^\s,;]+     # DFS URIs
              | /(?:[\w.\-]+/)+[\w.\-]*               # absolute POSIX paths
    )
  | (?P<hostport> [A-Za-z][\w.\-]*:\d{2,5}            # host:port
              | (?:\d{1,3}\.){3}\d{1,3}(?::\d{1,5})?  # IPv4[:port]
    )
  | (?P<ident> [A-Za-z]+[_\-][\w\-]*\d[\w\-]*         # attempt_01, job-7_2
              | [A-Za-z]+\d+(?:_[\w]+)*               # task000_1, vertex12
              | \d+[_\-][\w\-]*[A-Za-z][\w\-]*        # 01_attempt
    )
  | (?P<number> \d+(?:\.\d+)?(?:[eE][+-]?\d+)?        # 2264, 12.5, 1e9
    )
  | (?P<word>  [A-Za-z]+(?:_[A-Za-z]+)+               # snake_case compounds
              | [A-Za-z][A-Za-z'\-]*                  # words, don't, on-disk
    )
  | (?P<star>  \*                                     # log-key variable field
    )
  | (?P<punct> [^\sA-Za-z0-9]                         # everything else, 1 char
    )
    """,
    re.VERBOSE,
)

_KIND_ORDER = ("path", "hostport", "ident", "number", "word", "star", "punct")


@dataclass(frozen=True, slots=True)
class Token:
    """A single token with its surface form, kind and character offset."""

    text: str
    kind: str  # one of: path, hostport, ident, number, word, star, punct
    start: int

    @property
    def end(self) -> int:
        return self.start + len(self.text)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def iter_tokens(text: str) -> Iterator[Token]:
    """Yield :class:`Token` objects for ``text`` in surface order."""
    for match in _TOKEN_RE.finditer(text):
        for kind in _KIND_ORDER:
            value = match.group(kind)
            if value is not None:
                yield Token(value, kind, match.start(kind))
                break


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list of :class:`Token`."""
    return list(iter_tokens(text))


#: Surface form of a masked (variable) token in log keys.
STAR = "*"

#: Token kinds that are variable by construction and are masked to ``*``
#: before template matching (the standard log-parser preprocessing step:
#: identifiers, numerals and localities can never be template constants).
VARIABLE_KINDS = frozenset({"ident", "number", "hostport", "path"})

#: Whitespace-delimited chunk -> (masked tokens, raw tokens) memo, shared
#: by :func:`words` and :func:`mask_message`.  No token pattern can span
#: whitespace, so tokenizing chunk-by-chunk is exactly equivalent to
#: tokenizing the whole message (``tests/test_match_parity.py`` and the
#: tokenizer properties prove it); log streams draw their chunks from a
#: small working vocabulary, so the memo turns the regex tokenizer into a
#: few dict hits per message.  Bounded by wholesale reset; worst case
#: under races is a duplicate tokenize, never a wrong one.
_CHUNK_MEMO: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
_CHUNK_MEMO_CAP = 65536


def _memo_miss(chunk: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Tokenize one chunk the memo has not seen and remember it."""
    tokens = list(iter_tokens(chunk))
    entry = (
        tuple(STAR if t.kind in VARIABLE_KINDS else t.text for t in tokens),
        tuple(t.text for t in tokens),
    )
    if len(_CHUNK_MEMO) >= _CHUNK_MEMO_CAP:
        _CHUNK_MEMO.clear()
    _CHUNK_MEMO[chunk] = entry
    return entry


def words(text: str) -> list[str]:
    """Tokenize and return surface strings only (memoised per chunk)."""
    out: list[str] = []
    memo = _CHUNK_MEMO
    for chunk in text.split():
        entry = memo.get(chunk)
        if entry is None:
            entry = _memo_miss(chunk)
        out.extend(entry[1])
    return out


def mask_message(message: str) -> tuple[list[str], list[str]]:
    """Tokenize ``message`` returning (masked tokens, raw tokens).

    Masked tokens replace identifier/number/locality tokens with ``*``;
    raw tokens are exactly :func:`words` of ``message``.
    """
    masked: list[str] = []
    raw: list[str] = []
    memo = _CHUNK_MEMO
    for chunk in message.split():
        entry = memo.get(chunk)
        if entry is None:
            entry = _memo_miss(chunk)
        masked.extend(entry[0])
        raw.extend(entry[1])
    return masked, raw


def detokenize(tokens: list[Token] | list[str]) -> str:
    """Join tokens back into a single-space-separated string.

    Exact whitespace is not recoverable (nor needed): log keys are compared
    token-wise throughout the pipeline.
    """
    parts = [t.text if isinstance(t, Token) else t for t in tokens]
    return " ".join(parts)
