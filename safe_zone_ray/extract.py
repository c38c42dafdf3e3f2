"""Deterministic HTML → text extraction.

The per-row invariant required by BASELINE.json's ``input_hint`` is
"byte-identical extracted text per url" — this extractor IS the frozen spec
(SURVEY.md section 7.1 step 3). Pure stdlib, no parser dependency, so the same
bytes always produce the same text on any worker.

Spec (applied in order):
1. decode UTF-8 with replacement;
2. drop <script>/<style>/<noscript>/<template> elements and HTML comments;
3. block-level tags (incl. <br>) become newlines, every other tag is removed;
4. HTML entities are unescaped;
5. NBSP/zero-width chars normalised to plain space / removed; horizontal
   whitespace runs collapse to one space; lines are stripped; empty lines are
   dropped; lines join with a single "\n".
"""

from __future__ import annotations

import html as _html
import re

_DROP_ELEMENT_RE = re.compile(
    r"<(script|style|noscript|template)\b[^>]*>.*?</\1\s*>",
    re.IGNORECASE | re.DOTALL,
)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_BLOCK_TAG_RE = re.compile(
    r"</?(?:p|div|br|li|ul|ol|tr|td|th|table|h[1-6]|title|head|body|html|nav|header|"
    r"footer|section|article|aside|main|blockquote|pre|form|hr|figure|figcaption|dl|dt|dd)\b[^>]*>",
    re.IGNORECASE,
)
_ANY_TAG_RE = re.compile(r"<[^>]+>")
_ZERO_WIDTH_RE = re.compile("[​‌‍﻿]")
_HSPACE_RE = re.compile(r"[ \t\r\f\v ]+")


def extract_text(html_bytes: bytes | str) -> str:
    """Frozen deterministic extractor (see module docstring)."""
    if isinstance(html_bytes, bytes):
        raw = html_bytes.decode("utf-8", errors="replace")
    else:
        raw = html_bytes
    s = _COMMENT_RE.sub(" ", raw)
    s = _DROP_ELEMENT_RE.sub(" ", s)
    s = _BLOCK_TAG_RE.sub("\n", s)
    s = _ANY_TAG_RE.sub("", s)
    s = _html.unescape(s)
    s = _ZERO_WIDTH_RE.sub("", s)
    lines = []
    for line in s.split("\n"):
        line = _HSPACE_RE.sub(" ", line).strip()
        if line:
            lines.append(line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Vectorized (Arrow RE2) form of the same frozen spec.
#
# RE2 has no backreferences, so the drop-elements regex expands into one
# alternation branch per tag (equivalent — each branch pins the same
# open/close tag the backreference would; the construction is shared with the
# DuckDB oracle, oracle/decisions_sql._extract_expr). The rows split in two:
# the Arrow chain is exact wherever the character after a tag name is ASCII
# and the steps below are expressible in RE2; every other row reruns the
# frozen extractor. Those are the rows with HTML entities ('&'), with
# whitespace where str.strip() and RE2's \s differ (_VEC_FALLBACK_CLASS), and
# with a tag name followed by a non-ASCII character (_TAG_NAME_NEXT_NON_ASCII)
# or spelled with ı, İ, ſ or the Kelvin sign (_TAG_NAME_CASE_FOLD).
# Byte-identity with extract_text is pinned by
# tests/test_extract.py::test_vectorized_matches_row_extractor and
# tests/test_extract_vectorized.py.

# Python's \b after a tag name is unicode-aware (no boundary before é);
# RE2's is ASCII-only, so a bare \b would over-match '<pé...'. The exact RE2
# spelling of '<name\b[^>]*>' is '<name(?:>|[NOT-word-char][^>]*>)' with the
# word class spelled out as unicode \p{L}\p{N}_ (found by hypothesis fuzzing
# — tests/test_extract_vectorized.py). The DuckDB oracle uses that spelling.
_TAG_END = r"(?:>|[^>\p{L}\p{N}_][^>]*>)"
# The vectorized chain splits the rows instead. Its tag end treats every
# non-ASCII character as a word character, so RE2 compiles an ASCII class
# instead of the unicode tables on every call (pyarrow does not cache
# compiled regexes) and scans bytes instead of code points. It agrees with
# Python wherever the character after a tag name is ASCII; the rows where it
# is not are found by _TAG_NAME_NEXT_NON_ASCII and rerun per row.
_TAG_END_ASCII = r"(?:>|[^>0-9A-Za-z_\x80-\x{10FFFF}][^>]*>)"
# Python \s is unicode (includes \v, FS-US, NEL, NBSP, the general-punct
# spaces); RE2 \s is ASCII-only — spell the set out for the closer tag.
_PY_WS = (
    r"[ \t\n\r\f\v\x1c-\x1f\x85\xa0"
    r"\x{1680}\x{2000}-\x{200a}\x{2028}\x{2029}\x{202f}\x{205f}\x{3000}]"
)
_DROP_TAGS = ("script", "style", "noscript", "template")
_BLOCK_TAGS = (
    r"p|div|br|li|ul|ol|tr|td|th|table|h[1-6]|title|head|body|html|nav|header|"
    r"footer|section|article|aside|main|blockquote|pre|form|hr|figure|figcaption|dl|dt|dd"
)
_DROP_ALTERNATION = "|".join(
    rf"<{t}{_TAG_END_ASCII}.*?</{t}{_PY_WS}*>" for t in _DROP_TAGS
)
_BLOCK_TAG_SQLSAFE = rf"(?i)</?(?:{_BLOCK_TAGS}){_TAG_END_ASCII}"
# '&' (entities) plus whitespace chars where Python str.strip()/\s and RE2
# diverge (\v is IN the frozen HSPACE class so it's fine; these are not)
_VEC_FALLBACK_CLASS = (
    "[&\x1c-\x1f\x85\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]"
)
# Rows where a tag name is directly followed by a non-ASCII character: the
# ASCII tag end above declines them.
_TAG_NAME_NEXT_NON_ASCII = (
    rf"(?i:<(?:/?(?:{_BLOCK_TAGS})|{'|'.join(_DROP_TAGS)}))[^\x00-\x7f]"
)
# Rows where a tag name holds one of the four non-ASCII letters that
# case-fold onto an ASCII one: Python's IGNORECASE matches dotless/dotted I
# ('ı', 'İ') against 'i' and RE2's does not; RE2's (?i) folds long s ('ſ')
# onto 's' and the Kelvin sign onto 'k', while the frozen extractor's '</\1>'
# backreference does not. No RE2 spelling decides these rows, so the DuckDB
# oracle refuses them (oracle/decisions_sql._extract_expr).
_TAG_NAME_CASE_FOLD = (
    r"</?[0-9A-Za-z\x{130}\x{131}\x{17f}\x{212a}]*[\x{130}\x{131}\x{17f}\x{212a}]"
)
# The earlier passes only insert spaces, so testing the raw html finds every
# such tag.
_NEEDS_ROW = f"{_VEC_FALLBACK_CLASS}|{_TAG_NAME_NEXT_NON_ASCII}|{_TAG_NAME_CASE_FOLD}"


def extract_text_column(html_col):
    """Arrow string array of raw html → extracted text array (frozen spec),
    vectorized; rows matching ``_NEEDS_ROW`` rerun ``extract_text`` per row
    for exact parity."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    s = pc.replace_substring_regex(html_col, r"(?s)<!--.*?-->", " ")
    s = pc.replace_substring_regex(s, f"(?is){_DROP_ALTERNATION}", " ")
    s = pc.replace_substring_regex(s, _BLOCK_TAG_SQLSAFE, "\n")
    s = pc.replace_substring_regex(s, r"<[^>]+>", "")
    # (entity unescape is identity for rows without '&' — fallback otherwise)
    s = pc.replace_substring_regex(s, "[​‌‍﻿]", "")
    # a lone space is already collapsed: replace only runs and other spaces
    s = pc.replace_substring_regex(s, "[ \t\r\x0c\x0b\xa0]{2,}|[\t\r\x0c\x0b\xa0]", " ")
    s = pc.replace_substring_regex(s, " ?\n ?", "\n")
    s = pc.replace_substring_regex(s, "\n+", "\n")
    s = pc.utf8_trim(s, " \n")

    # only the rows that need it leave Arrow; their results are scattered in
    needs_row = pc.fill_null(pc.match_substring_regex(html_col, _NEEDS_ROW), False)
    rows = np.flatnonzero(needs_row.to_numpy(zero_copy_only=False))
    if len(rows):
        raws = html_col.take(rows).to_numpy(zero_copy_only=False).tolist()
        fixed = pa.array([extract_text(h) for h in raws], pa.string())
        return pc.replace_with_mask(s, needs_row, fixed)
    return s
