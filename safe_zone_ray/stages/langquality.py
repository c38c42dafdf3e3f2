"""Language-ID + quality actor-pool stage.

The Ray analogue of the reference's model-holding provider singleton
(/root/reference/internal/ai/provider.go:110-162, SURVEY.md T4): a callable
CLASS for ``map_batches(LangQualityStage, concurrency=N, batch_size=B)``.
Model state (char-bigram LM, stopword profiles — fastText ``lid.176.bin`` when
a model file is supplied) is built ONCE per actor in ``__init__``; ``__call__``
only does per-batch work. Tokenisation happens once per document and is shared
by langid and the stopword-fraction metric.
"""

from __future__ import annotations

import pyarrow as pa

from safe_zone_ray.quality import QualityConfig, QualityScorer
from safe_zone_ray.stages import pylist

# Rows matching this class rerun the per-row reference scorer: CJK-range
# codepoints (detect_language short-circuit) and whitespace characters where
# RE2 \s and Python \s disagree (\v, FS-US, NEL, NBSP, ogham space mark,
# en/em/thin spaces, LS, PS, NNBSP, MMSP, ideographic space).
_FALLBACK_CLASS = (
    "[\u2e80-\U0010ffff"
    "\x0b\x1c-\x1f\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]"
)


def _token_bytes() -> bytes:
    """The byte table of the batch path's one lookup over the text's UTF-8
    bytes. ASCII word characters (Python's ``\\w``) map to their lowercase,
    ``_SYMBOL_RE_PATTERN``'s symbols to ``_SYM`` and the ASCII members of
    ``_FALLBACK_CLASS`` to ``_FALLBACK_ASCII`` (both ASCII whitespace, below
    0x20), every other ASCII byte to a space. Bytes >= 0x80 stay, so a row
    is ASCII when none of its bytes is >= 0x80."""
    import re

    from safe_zone_ray.quality import _SYMBOL_RE

    table = bytearray(range(256))
    for b in range(0x80):
        c = chr(b)
        if re.fullmatch(r"\w", c):
            table[b] = ord(c.lower())
        elif _SYMBOL_RE.fullmatch(c):
            table[b] = _SYM
        elif re.fullmatch(_FALLBACK_CLASS, c):
            table[b] = _FALLBACK_ASCII
        else:
            table[b] = 0x20
    return bytes(table)


_SYM, _FALLBACK_ASCII = 0x09, 0x0B
_TOKEN_BYTES = _token_bytes()
_DROP_REASONS = pa.array(
    [
        "quality:too_few_words",
        "quality:too_many_words",
        "quality:mean_word_length",
        "quality:symbol_ratio",
        "quality:stopword_fraction",
        "quality:duplicate_lines",
        "quality:perplexity",
        "",
    ],
    pa.string(),
)



class LangQualityStage:
    def __init__(
        self,
        config: QualityConfig | None = None,
        model_path: str | None = None,
        word_lm=None,
    ):
        self.config = config or QualityConfig()
        self.scorer = QualityScorer(self.config)
        self.model_path = model_path
        # Optional corpus-trained KenLM-style word-bigram model: trained ONCE
        # driver-side, shipped to each actor via fn_constructor_kwargs (the
        # broadcast-model actor pattern — never re-shipped per batch).
        self.word_lm = word_lm
        # Real fastText model slot (north_star names lid.176.bin): loaded
        # ONCE per actor from the pure-numpy reader (fasttext_bin.py). When
        # the file is absent the deterministic n-gram profile detector below
        # remains the langid path (sandbox fallback).
        self.ft_model = None
        if model_path:
            import os

            if os.path.exists(model_path):
                from safe_zone_ray.fasttext_bin import load_model

                self.ft_model = load_model(model_path)
            else:
                import logging

                logging.getLogger(__name__).warning(
                    "fastText model %s not found; using the deterministic "
                    "n-gram profile langid fallback", model_path,
                )
        # per-actor prebuilt artifacts for the vectorized path: ONE union
        # vocabulary for a single index_in hash join, plus a (lang, vocab)
        # membership matrix resolved in numpy
        import numpy as np

        from safe_zone_ray.langid import LANGS, PROFILES

        self._langs = LANGS
        union = sorted(set().union(*PROFILES.values()))
        self._union_vocab = pa.array(union, pa.string())
        self._lang_matrix = np.zeros((len(LANGS), len(union)), dtype=bool)
        pos = {w: i for i, w in enumerate(union)}
        for li, lang in enumerate(LANGS):
            for w in PROFILES[lang]:
                self._lang_matrix[li, pos[w]] = True

    @classmethod
    def cached(cls, config: QualityConfig | None = None) -> "LangQualityStage":
        """Per-worker-process cached instance for the stateless-task variant
        of this stage: long-lived Ray workers build the model once, exactly
        like an actor ``__init__``, but without actor-pool spin-up latency.
        Appropriate while the model state is cheap/shareable; switch to the
        actor-pool variant when holding a real fastText/KenLM model."""
        global _CACHED_STAGE
        config = config or QualityConfig()  # normalise so None hits the cache
        if _CACHED_STAGE is None or _CACHED_STAGE.config != config:
            _CACHED_STAGE = cls(config)
        return _CACHED_STAGE

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized scoring, in two row sets.

        One table lookup over the text's UTF-8 bytes (``_TOKEN_BYTES``)
        lowercases ASCII letters, turns every other ASCII byte that is not
        a word character into whitespace, and marks the symbols and the
        ASCII ``_FALLBACK_CLASS`` bytes. That gives every row's symbol
        count (all of ``_SYMBOL_RE_PATTERN``'s symbols are ASCII, so a byte
        count is exact) and the ASCII rows' tokens, split by
        ``ascii_split_whitespace``. Only the rows with a byte >= 0x80 run
        the Unicode kernels: ``utf8_lower``, ``tokenize`` (which decodes
        their non-ASCII characters), the diacritic and the
        ``_FALLBACK_CLASS`` scans. No kernel compiles a Unicode class for
        an all-ASCII batch.

        Stopword hits are one ``index_in`` hash join of the tokens against
        the union vocabulary, perplexity numpy gathers over the batch's
        bytes and the duplicate-line fraction a dictionary encode of the
        batch's lines. Only ``_FALLBACK_CLASS`` rows (and every row when a
        fastText model or a word LM is loaded) become Python strings.
        Equivalence with the per-row reference scorer is pinned by
        tests/test_langquality_vectorized.py."""
        import numpy as np
        import pyarrow.compute as pc

        from safe_zone_ray.quality import string_buffers

        # one chunk: row offsets and take indices are then batch-wide
        text_arr = pc.fill_null(batch.column("text_extracted"), "")
        if isinstance(text_arr, pa.ChunkedArray):
            text_arr = text_arr.combine_chunks()
        n = batch.num_rows
        data, offsets = string_buffers(text_arr)
        tok = np.frombuffer(bytearray(data).translate(_TOKEN_BYTES), np.uint8)

        def row_of(pos):
            return np.searchsorted(offsets, pos, side="right") - 1

        marked = np.flatnonzero(tok < 0x20)
        marked_rows, marked_cls = row_of(marked), tok[marked]
        sym_hits = np.bincount(marked_rows[marked_cls == _SYM], minlength=n)
        fallback = [marked_rows[marked_cls == _FALLBACK_ASCII]]
        high = np.unique(row_of(np.flatnonzero(tok >= 0x80)))

        # Tokens: the ASCII rows from the translated bytes (the non-ASCII
        # rows blanked first), the non-ASCII rows from ``tokenize`` over
        # their utf8_lower. Token counts, lengths and stopword indices
        # are segment sums, so the two sets just add up.
        for r in high:
            tok[offsets[r] : offsets[r + 1]] = 0x20
        flat, parent = _split_words(offsets, tok)
        parts = [
            (parent, pc.binary_length(flat).to_numpy(zero_copy_only=False), self._vocab_index(flat))
        ]
        diacritic_rows = np.zeros(0, dtype=np.int64)
        if len(high):
            text_high = text_arr.take(high)
            lower_high = pc.utf8_lower(text_high)
            flat_high, parent_high = tokenize(lower_high)
            parts.append(
                (
                    high[parent_high],
                    pc.utf8_length(flat_high).to_numpy(zero_copy_only=False),
                    self._vocab_index(flat_high),
                )
            )
            is_fallback = pc.match_substring_regex(text_high, _FALLBACK_CLASS)
            fallback.append(high[is_fallback.to_numpy(zero_copy_only=False)])
            # the rows the reference scorer treats as non-ASCII: any
            # codepoint >= U+00C0 (the Spanish class holds ¿ and ¡, which are
            # below that bound, so the gate matters)
            is_dia = pc.match_substring_regex(text_high, "[À-\U0010FFFF]")
            in_high = np.flatnonzero(is_dia.to_numpy(zero_copy_only=False))
            diacritic_rows, lower_dia = high[in_high], lower_high.take(in_high)
        parent, flat_len, idx = (np.concatenate(p) for p in zip(*parts))
        n_words_a = np.bincount(parent[flat_len > 0], minlength=n)
        word_chars = np.bincount(parent, weights=flat_len, minlength=n)
        denom = np.maximum(n_words_a, 1).astype(np.float64)
        mean_wl_a = np.where(n_words_a > 0, word_chars / denom, 0.0)
        sym_ratio_a = np.where(n_words_a > 0, sym_hits / denom, 0.0)

        # per-language stopword hits: numpy membership gathers per language
        known = idx >= 0
        k_rows = parent[known]
        k_idx = idx[known]
        hits = np.empty((len(self._langs), n), dtype=np.float64)
        for li in range(len(self._langs)):
            sel = self._lang_matrix[li, k_idx]
            hits[li] = np.bincount(k_rows[sel], minlength=n)
        scores = hits / denom[None, :]
        en_idx = self._langs.index("en")
        stop_frac_a = np.where(n_words_a > 0, hits[en_idx] / denom, 0.0)
        # Diacritic bonus: one count kernel per language class over the
        # non-ASCII rows. Other rows get bonus 0; langid scores get the
        # bonus, stopword_fraction doesn't.
        if len(diacritic_rows):
            from safe_zone_ray.langid import _DIACRITICS

            for li, lang in enumerate(self._langs):
                dia = _DIACRITICS.get(lang)
                if not dia:
                    continue
                cnt = pc.count_substring_regex(lower_dia, f"[{dia}]").to_numpy(
                    zero_copy_only=False
                )
                scores[li, diacritic_rows] += np.minimum(0.2, 0.02 * cnt)
        best = scores.argmax(axis=0)
        best_score = scores[best, np.arange(n)]

        # lang ids are codes into lang_names; the per-row paths below may
        # add names outside LANGS ("zh", a fastText label)
        lang_names = [*self._langs, "und"]
        lang_code = best.astype(np.int32)
        score_out = np.minimum(1.0, best_score * 2.5)
        und = (best_score <= 0.0) | (n_words_a == 0)
        lang_code[und] = len(self._langs)
        score_out[und] = 0.0

        def set_lang(i, lang, score):
            if lang not in lang_names:
                lang_names.append(lang)
            lang_code[i] = lang_names.index(lang)
            score_out[i] = score

        # ASCII rows lowercase byte for byte; the non-ASCII rows are scored
        # again from their utf8_lower
        ppls = self.scorer.lm.perplexity_batch(pc.ascii_lower(text_arr))
        if len(high):
            ppls[high] = self.scorer.lm.perplexity_batch(lower_high)
        dup_frac_a = _dup_line_fraction(text_arr)

        # Narrow per-row fallback: the unicode split class above makes the
        # vectorized path exact for all Latin/diacritic text, so only two
        # divergence classes remain — (a) rows with codepoints >= U+2E80,
        # where detect_language's CJK short-circuit applies, and (b) rows
        # containing whitespace RE2's \s doesn't match but Python's does
        # (\v, \x1c-\x1f, NEL, NBSP, ogham/general-punct spaces, LS/PS,
        # NNBSP, MMSP, ideographic space), which would skew the perplexity
        # normalisation. Both are ~absent from real web-extracted text.
        fallback = np.unique(np.concatenate(fallback))
        if len(fallback):
            from safe_zone_ray.langid import detect_language

            texts = text_arr.take(fallback)
            rows = zip(fallback, pylist(texts), pylist(pc.utf8_lower(texts)))
            for i, text, lower in rows:
                m = self.scorer.metrics(text, lower=lower)
                set_lang(i, *detect_language(text, tokens=m.tokens))
                n_words_a[i] = m.n_words
                mean_wl_a[i] = m.mean_word_len
                sym_ratio_a[i] = m.symbol_word_ratio
                stop_frac_a[i] = m.stopword_fraction
                ppls[i] = m.perplexity
                dup_frac_a[i] = m.dup_line_fraction

        # Real-model override: when a fastText classifier is loaded, langid
        # comes from it (probability as the score); all counting/perplexity
        # metrics above are model-independent and stand unchanged.
        if self.ft_model is not None:
            for i, text in enumerate(pylist(text_arr)):
                pred = self.ft_model.predict(text.replace("\n", " "), k=1)
                set_lang(i, *(pred[0] if pred else ("und", 0.0)))

        # decision rules: the first failing rule, in the same fixed order as
        # QualityScorer.quality_drop_reason (stable drop_reason histograms)
        c = self.config
        conditions = [
            n_words_a < c.min_words,
            n_words_a > c.max_words,
            ~((mean_wl_a >= c.min_mean_word_len) & (mean_wl_a <= c.max_mean_word_len)),
            sym_ratio_a > c.max_symbol_word_ratio,
            stop_frac_a < c.min_stopword_fraction,
            dup_frac_a > c.max_dup_line_fraction,
            ppls > c.max_perplexity,
        ]
        # independent per-rule bitmask (bit k = conditions[k]) for the
        # ablation report — computed HERE on the float64 arrays so borderline
        # values can never diverge from the drop_reason chain
        quality_flags = np.zeros(n, dtype=np.int32)
        reason_code = np.full(n, len(_DROP_REASONS) - 1, dtype=np.int32)
        for k in reversed(range(len(conditions))):
            quality_flags |= conditions[k].astype(np.int32) << k
            reason_code[conditions[k]] = k

        def f32(values):
            return pa.array(values.astype(np.float32))

        quality = pa.StructArray.from_arrays(
            [
                pa.array(n_words_a.astype(np.int32)),
                f32(mean_wl_a),
                f32(sym_ratio_a),
                f32(stop_frac_a),
                f32(dup_frac_a),
            ],
            names=[
                "n_words",
                "mean_word_len",
                "symbol_word_ratio",
                "stopword_fraction",
                "dup_line_fraction",
            ],
        )
        out = (
            batch.append_column("lang_id", pa.array(lang_names, pa.string()).take(lang_code))
            .append_column("lang_score", f32(score_out))
            .append_column("perplexity", f32(ppls))
            .append_column("quality", quality)
            .append_column("quality_drop_reason", _DROP_REASONS.take(reason_code))
            .append_column("quality_flags", pa.array(quality_flags))
        )
        if self.word_lm is not None:
            wppl = np.array([self.word_lm.perplexity(t) for t in pylist(text_arr)])
            out = out.append_column("word_perplexity", f32(wppl))
        return out

    def _vocab_index(self, flat: pa.Array):
        """Each token's index in the union stopword vocabulary, -1 if none."""
        import pyarrow.compute as pc

        return pc.fill_null(pc.index_in(flat, value_set=self._union_vocab), -1).to_numpy(
            zero_copy_only=False
        )


def tokenize(lower_arr: pa.Array):
    """The ``\\w+`` tokens of every row, flattened, and each token's row.

    A token is a run of Python word characters (``str.isalnum()`` or "_",
    which is what ``re``'s ``\\w`` matches; below U+2E80, where the stage
    uses it, that is also RE2's ``[\\p{L}\\p{N}_]``). ``_word_bytes`` turns
    every other character into spaces, decoding only the non-ASCII ones in
    numpy, and ``ascii_split_whitespace`` splits the rest. Returns the
    non-empty tokens (an Arrow string array) and their row indices (numpy
    int)."""
    import pyarrow.compute as pc

    from safe_zone_ray.quality import string_buffers

    data, offsets = string_buffers(lower_arr)
    flat, parent = _split_words(offsets, _word_bytes(data))
    keep = pc.binary_length(flat).to_numpy(zero_copy_only=False) > 0
    return flat.filter(pa.array(keep)), parent[keep]


def _split_words(offsets, word_bytes):
    """``(tokens, rows)``: the whitespace-separated runs of ``word_bytes``,
    the rows' bytes with every non-word character blanked, flattened (with
    the empty strings a leading or trailing space leaves), and the row of
    each."""
    import numpy as np
    import pyarrow.compute as pc

    words = pc.ascii_split_whitespace(
        pa.StringArray.from_buffers(
            len(offsets) - 1, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(word_bytes)
        )
    )
    return pc.list_flatten(words), pc.list_parent_indices(words).to_numpy(zero_copy_only=False)


def _word_bytes(data):
    """UTF-8 ``data`` through ``_TOKEN_BYTES``, and then the bytes of each
    non-ASCII character that is not a word character blanked too (only the
    non-ASCII characters are decoded)."""
    import numpy as np

    out = np.frombuffer(bytearray(data).translate(_TOKEN_BYTES), np.uint8)
    lead = np.flatnonzero(data >= 0xC0)  # the first byte of each non-ASCII character
    if len(lead):
        b0 = data[lead].astype(np.int32)
        width = 2 + (b0 >= 0xE0) + (b0 >= 0xF0)
        last = len(data) - 1
        b1, b2, b3 = (data[np.minimum(lead + k, last)].astype(np.int32) & 0x3F for k in (1, 2, 3))
        cp = np.select(
            [width == 2, width == 3],
            [((b0 & 0x1F) << 6) | b1, ((b0 & 0x0F) << 12) | (b1 << 6) | b2],
            ((b0 & 0x07) << 18) | (b1 << 12) | (b2 << 6) | b3,
        )
        other = ~_word_codepoints(cp)
        for k in range(4):
            out[(lead + k)[other & (k < width)]] = 0x20
    return out


_WORD_BMP = None


def _word_codepoints(cp):
    """Whether each code point is a Python word character: a lookup in a
    table of the Basic Multilingual Plane, built once per process, and one
    ``str.isalnum`` per distinct code point above it."""
    import numpy as np

    global _WORD_BMP
    if _WORD_BMP is None:
        bmp = "".join(map(chr, range(0x10000)))
        _WORD_BMP = np.array([c.isalnum() for c in bmp], dtype=bool)
        _WORD_BMP[ord("_")] = True
    word = _WORD_BMP[np.minimum(cp, 0xFFFF)]
    astral = cp > 0xFFFF
    if astral.any():
        above = np.unique(cp[astral])
        is_word = np.array([chr(c).isalnum() for c in above])
        word[astral] = is_word[np.searchsorted(above, cp[astral])]
    return word


def _dup_line_fraction(text_arr: pa.Array):
    """Per row, 1 - distinct / total over the lines that are not blank, as
    ``QualityScorer.metrics`` computes it: split on "\\n", drop the lines
    ``utf8_trim_whitespace`` empties (Python's ``str.strip`` whitespace),
    dictionary-encode the rest and count the distinct (row, code) pairs."""
    import numpy as np
    import pyarrow.compute as pc

    n = len(text_arr)
    lines = pc.split_pattern(text_arr, "\n")
    flat = pc.list_flatten(lines)
    keep = pc.not_equal(pc.utf8_trim_whitespace(flat), "")
    row = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
    row = row[keep.to_numpy(zero_copy_only=False)].astype(np.int64)
    code = pc.dictionary_encode(flat.filter(keep)).indices.to_numpy(zero_copy_only=False)
    total = np.bincount(row, minlength=n)
    distinct = np.bincount(np.unique((row << 32) | code) >> 32, minlength=n)
    return np.where(total > 0, 1.0 - distinct / np.maximum(total, 1), 0.0)


_CACHED_STAGE: LangQualityStage | None = None


def langquality_batch(batch: pa.Table, config: QualityConfig | None = None) -> pa.Table:
    """Stateless-task form of the stage (state via per-process cache)."""
    return LangQualityStage.cached(config)(batch)
