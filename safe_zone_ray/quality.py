"""Quality scoring: Gopher/C4-style heuristics + char n-gram perplexity.

The reference delegates "is this content acceptable" to per-request LLM calls
(TOXIC_LANGUAGE etc., /root/reference/init.sql:103-107); at corpus scale these
become deterministic kernels (north_star): vectorizable counting heuristics
(mean word length, symbol-to-word ratio, stop-word fraction, duplicate-line
fraction — the published Gopher rules / C4 filters) plus a KenLM-style
character-bigram LM trained on a fixed embedded English sample, giving a
reproducible perplexity proxy (symbol soup and keyboard mash score high).

Everything here is pure Python/stdlib and deterministic; the Ray stage holds a
``QualityScorer`` per actor (built once in ``__init__``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from safe_zone_ray.langid import PROFILES

_WORD_RE = re.compile(r"\w+", re.UNICODE)
_WS_RE = re.compile(r"\s+")
# every symbol is ASCII: the batch path counts them as bytes
_SYMBOL_RE_PATTERN = r"[#@$%^&*+=<>~|\\{}\[\]]"  # shared with the DuckDB oracle
_SYMBOL_RE = re.compile(_SYMBOL_RE_PATTERN)
_ELLIPSIS_RE = re.compile(r"\.\.\.|…")
_BULLET_RE = re.compile(r"^[\-\*•‣▪]", re.MULTILINE)

# Fixed English training sample for the character LM (written for this repo;
# generic prose so natural language scores low perplexity and symbol soup high).
_LM_SAMPLE = """
The quick brown fox jumps over the lazy dog while the morning sun rises over
the quiet town. People walk to work along the river and talk about the news of
the day. A good sentence has a natural rhythm of common words that follow one
another in familiar patterns. Language models measure how likely each letter
is to follow the letters before it, and ordinary prose like this is easy to
predict. Reports, articles, letters, and stories share the same simple
building blocks: short words, spaces, and punctuation in steady proportion.
When text is made of random symbols or repeated fragments it stops looking
like language at all, and the measure of surprise grows very large. This small
sample is enough to teach a character model the broad shape of English without
any outside data. History shows that simple methods applied carefully can work
well. The committee will meet on Monday to discuss the annual budget and the
plan for the coming year. Science and art both depend on careful observation
and honest description of what is seen. Thank you for reading this example.
"""


SCORE_SLICE_BYTES = 1 << 16


class CharBigramLM:
    """Laplace-smoothed byte-bigram model, fully vectorized: a 256x256
    log-probability matrix is prebuilt once (per actor/worker) and scoring a
    document is two numpy gathers + a sum — no per-character Python loop."""

    def __init__(self, sample: str = _LM_SAMPLE):
        import numpy as np

        sample = re.sub(r"\s+", " ", sample.lower()).strip()
        data = np.frombuffer(sample.encode("utf-8", "replace"), dtype=np.uint8)
        counts = np.zeros((256, 256), dtype=np.float64)
        np.add.at(counts, (data[:-1], data[1:]), 1.0)
        vocab_size = len(set(data.tolist())) + 1
        totals = counts.sum(axis=1, keepdims=True)
        self._logp = np.log((counts + 1.0) / (totals + vocab_size))
        self._vocab_size = vocab_size

    def perplexity(self, text: str, max_chars: int = 2000) -> float:
        """exp(mean negative log-prob per transition); clamped sample length
        keeps the kernel O(1) per document regardless of document size."""
        import numpy as np

        # slice before normalising: O(max_chars), not O(len(text))
        s = _WS_RE.sub(" ", text[:max_chars].lower()).strip()
        data = np.frombuffer(s.encode("utf-8", "replace"), dtype=np.uint8)
        n = len(data) - 1
        if n < 1:
            return float(self._vocab_size)
        lp = self._logp[data[:-1], data[1:]]
        return float(math.exp(-lp.sum() / n))

    def perplexity_batch(self, lower_arr, max_chars: int = 2000):
        """Vectorized batch scoring, numerically identical to calling
        ``perplexity`` per row: normalise the whole batch
        (``normalise_batch``), then score every row's byte pairs with
        gathers over the concatenated buffer (``score_normalised``).

        ``lower_arr`` is a lowercased Arrow string array; returns a float64
        numpy array."""
        return self.score_normalised(self.normalise_batch(lower_arr, max_chars))

    @staticmethod
    def normalise_batch(lower_arr, max_chars: int = 2000):
        r"""What ``perplexity`` scores, per row: the first ``max_chars``
        codepoints, whitespace runs collapsed to one space, trimmed.

        The slice runs only when a row is longer than ``max_chars`` bytes.
        The collapse (``collapse_whitespace``) works on the bytes and knows
        RE2's ASCII-only ``\s``; rows where Python's ``\s`` differs take
        the langquality stage's per-row fallback. Null rows come back
        empty."""
        import numpy as np
        import pyarrow.compute as pc

        s = pc.fill_null(lower_arr, "")
        if len(s) and np.diff(string_buffers(s)[1]).max() > max_chars:
            s = pc.utf8_slice_codeunits(s, 0, max_chars)  # only a row this long can change
        return pc.utf8_trim_whitespace(collapse_whitespace(s))

    def score_normalised(self, s):
        """Perplexity of each normalised row: byte-pair gathers over the
        concatenated buffer, pairs that cross a row boundary zeroed, and a
        segment sum per row with ``np.add.reduceat``.

        The rows go in slices of about ``SCORE_SLICE_BYTES``. Each row's
        segment holds the same values as in one pass over the whole buffer
        (its pairs, then its zeroed boundary pair), so every sum is the same
        to the bit; but the float64 temporaries stay small enough for the
        allocator to reuse. Whole-block ones were mapped and faulted in
        afresh on every call, a quarter of the stage's time on a 2000-row
        block."""
        import numpy as np
        import pyarrow as pa

        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        n_rows = len(s)
        out = np.full(n_rows, float(self._vocab_size), dtype=np.float64)
        data, offsets = string_buffers(s)
        if len(data) < 2:
            return out
        logp = self._logp.ravel()
        n_pairs = len(data) - 1
        starts = np.minimum(offsets, n_pairs)  # row r's pairs start at starts[r]
        sums = np.empty(n_rows)
        cuts = np.searchsorted(offsets, np.arange(SCORE_SLICE_BYTES, n_pairs, SCORE_SLICE_BYTES))
        bounds = np.unique(np.concatenate([[0], cuts, [n_rows]]))
        for r0, r1 in zip(bounds[:-1], bounds[1:]):
            lo, hi = starts[r0], starts[r1]
            d = data[lo : hi + 1]
            seg = np.empty(hi - lo + 1)  # the pairs lo..hi-1 and one 0.0 slot
            # the same entries as self._logp[d[:-1], d[1:]], gathered by
            # flat 16-bit index (about twice as fast as 2-D fancy indexing)
            np.take(logp, (d[:-1].astype(np.uint16) << 8) | d[1:], out=seg[:-1])
            seg[-1] = 0.0
            # zero the pairs that straddle a row boundary (offsets[r+1]-1)
            boundary = offsets[r0 + 1 : r1 + 1] - 1
            seg[boundary[(boundary >= lo) & (boundary < hi)] - lo] = 0.0
            # a row without pairs gets one element here; `valid` masks it
            sums[r0:r1] = np.add.reduceat(seg, starts[r0 : r1 + 1] - lo)[:-1]
        counts = np.maximum(offsets[1:] - offsets[:-1] - 1, 0)
        valid = counts >= 1
        out[valid] = np.exp(-sums[valid] / counts[valid])
        return out


def collapse_whitespace(s):
    r"""``replace_substring_regex(s, r"\s+", " ")`` on the bytes, for a
    string array without nulls: every RE2 ``\s`` byte (``\t \n \f \r``
    and space) becomes a space, and a space that follows one in the same
    row is dropped. UTF-8 multi-byte sequences hold no ASCII byte, so this
    is exact for any string."""
    import numpy as np
    import pyarrow as pa

    data, offsets = string_buffers(s)
    b = np.frombuffer(data.tobytes().translate(_RE2_SPACE_TO_SPACE), np.uint8)
    ws = b == 0x20
    drop = np.zeros(len(b), dtype=bool)
    drop[1:] = ws[1:] & ws[:-1]
    drop[offsets[:-1][offsets[:-1] < len(b)]] = False  # a row's first byte stays
    dropped = np.flatnonzero(drop)
    if len(dropped):
        per_row = np.bincount(np.searchsorted(offsets, dropped, side="right") - 1, minlength=len(s))
        offsets = offsets - np.concatenate([[0], np.cumsum(per_row)])
        b = b[~drop]
    return pa.StringArray.from_buffers(
        len(s), pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(b)
    )


_RE2_SPACE_TO_SPACE = bytes.maketrans(b"\t\n\f\r", b"    ")


def string_buffers(arr):
    """``(data, offsets)`` of a string or binary Arrow array as numpy views:
    the UTF-8 bytes of its rows, and int64 row offsets into them that start
    at 0 (row ``i`` is ``data[offsets[i]:offsets[i + 1]]``)."""
    import numpy as np
    import pyarrow as pa

    wide = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
    if len(arr) == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(1, dtype=np.int64)
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int64 if wide else np.int32)
    offsets = offsets[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    buf = arr.buffers()[2]
    data = np.frombuffer(buf, dtype=np.uint8) if buf is not None else np.zeros(0, np.uint8)
    return data[offsets[0] : offsets[-1]], offsets - offsets[0]


@dataclass(frozen=True)
class QualityConfig:
    """Keep/drop rule thresholds (Gopher/C4-inspired defaults, tunable via
    the rule pack / pipeline config)."""

    min_words: int = 5
    max_words: int = 200_000
    min_mean_word_len: float = 1.5
    max_mean_word_len: float = 12.0
    max_symbol_word_ratio: float = 0.3
    min_stopword_fraction: float = 0.01
    max_dup_line_fraction: float = 0.30
    max_perplexity: float = 26.0
    allowed_langs: tuple[str, ...] = ("en",)


@dataclass
class QualityMetrics:
    n_chars: int = 0
    n_words: int = 0
    mean_word_len: float = 0.0
    symbol_word_ratio: float = 0.0
    stopword_fraction: float = 0.0
    dup_line_fraction: float = 0.0
    ellipsis_line_fraction: float = 0.0
    bullet_line_fraction: float = 0.0
    perplexity: float = 0.0
    tokens: list[str] = field(default_factory=list, repr=False)


class QualityScorer:
    """Stateful scorer: builds the char LM + stopword sets once; call
    ``metrics`` per document. Held per actor in the Ray stage."""

    def __init__(self, config: QualityConfig | None = None):
        self.config = config or QualityConfig()
        self.lm = CharBigramLM()
        self._en_stopwords = PROFILES["en"]

    def metrics(self, text: str, lower: str | None = None) -> QualityMetrics:
        """``lower`` lets callers share one ``text.lower()`` across langid,
        stopword and perplexity passes (tokenise-once rule: token lengths and
        counts are case-invariant)."""
        m = QualityMetrics()
        m.n_chars = len(text)
        if lower is None:
            lower = text.lower()
        tokens = _WORD_RE.findall(lower)
        m.tokens = tokens
        m.n_words = len(tokens)
        if tokens:
            m.mean_word_len = sum(map(len, tokens)) / len(tokens)
            m.symbol_word_ratio = len(_SYMBOL_RE.findall(text)) / len(tokens)
            sw = self._en_stopwords
            m.stopword_fraction = sum(1 for t in tokens if t in sw) / len(tokens)
        lines = [ln for ln in text.split("\n") if ln.strip()]
        if lines:
            m.dup_line_fraction = 1.0 - len(set(lines)) / len(lines)
            m.ellipsis_line_fraction = sum(1 for ln in lines if _ELLIPSIS_RE.search(ln)) / len(lines)
            m.bullet_line_fraction = sum(1 for ln in lines if _BULLET_RE.match(ln.strip())) / len(lines)
        m.perplexity = self.lm.perplexity(lower)
        return m

    def quality_drop_reason(self, m: QualityMetrics) -> str:
        """First failing rule name, or "" when the document passes. Rule order
        is fixed so drop_reason histograms are stable."""
        c = self.config
        if m.n_words < c.min_words:
            return "quality:too_few_words"
        if m.n_words > c.max_words:
            return "quality:too_many_words"
        if not (c.min_mean_word_len <= m.mean_word_len <= c.max_mean_word_len):
            return "quality:mean_word_length"
        if m.symbol_word_ratio > c.max_symbol_word_ratio:
            return "quality:symbol_ratio"
        if m.stopword_fraction < c.min_stopword_fraction:
            return "quality:stopword_fraction"
        if m.dup_line_fraction > c.max_dup_line_fraction:
            return "quality:duplicate_lines"
        if m.perplexity > c.max_perplexity:
            return "quality:perplexity"
        return ""


class WordBigramLM:
    """KenLM-style word-bigram language model with stupid backoff (Brants et
    al. 2007) — the deterministic stand-in for a KenLM binary at corpus scale.
    Train on a seeded sample of the corpus (driver-side, once), ship the
    counts to the scoring actors via ``fn_constructor_kwargs`` — the
    model-holding actor-pool pattern (SURVEY.md T4)."""

    BOS = "<s>"

    def __init__(self, documents: list[str], alpha: float = 0.4):
        self.alpha = alpha
        self.unigrams: dict[str, int] = {}
        self.bigrams: dict[tuple[str, str], int] = {}
        self.total = 0
        for doc in documents:
            toks = _WORD_RE.findall(doc.lower())
            prev = self.BOS
            for t in toks:
                self.unigrams[t] = self.unigrams.get(t, 0) + 1
                self.bigrams[(prev, t)] = self.bigrams.get((prev, t), 0) + 1
                self.total += 1
                prev = t
        self.vocab_size = len(self.unigrams) + 1
        self._ctx_totals: dict[str, int] = {}
        for (a, _), c in self.bigrams.items():
            self._ctx_totals[a] = self._ctx_totals.get(a, 0) + c

    def _logp(self, prev: str, word: str) -> float:
        big = self.bigrams.get((prev, word), 0)
        if big:
            return math.log(big / self._ctx_totals[prev])
        uni = self.unigrams.get(word, 0)
        if uni:
            return math.log(self.alpha * uni / self.total)
        return math.log(self.alpha / (self.total + self.vocab_size))

    def perplexity(self, text: str, max_tokens: int = 512) -> float:
        toks = _WORD_RE.findall(text.lower())[:max_tokens]
        if not toks:
            return float(self.total + self.vocab_size)
        log_sum = 0.0
        prev = self.BOS
        for t in toks:
            log_sum += self._logp(prev, t)
            prev = t
        return float(math.exp(-log_sum / len(toks)))


def train_word_lm_from_pages(pages_dir: str, sample_rows: int = 500) -> WordBigramLM:
    """Deterministic training sample: the first ``sample_rows`` rows of the
    lexicographically-first pages fragment, text extracted with the frozen
    extractor. Same input → same model, on any machine."""
    import glob as _glob

    import pyarrow.parquet as pq

    from safe_zone_ray.extract import extract_text

    files = sorted(_glob.glob(f"{pages_dir}/*.parquet"))
    if not files:
        return WordBigramLM([])
    t = pq.read_table(files[0], columns=["text", "html"]).slice(0, sample_rows)
    docs = [
        txt if txt is not None else extract_text(h or b"")
        for txt, h in zip(t.column("text").to_pylist(), t.column("html").to_pylist())
    ]
    return WordBigramLM(docs)
