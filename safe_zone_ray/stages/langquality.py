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

# Rows matching this class rerun the per-row reference scorer: CJK-range
# codepoints (detect_language short-circuit) and whitespace characters where
# RE2 \s and Python \s disagree (\v, FS-US, NEL, NBSP, ogham space mark,
# en/em/thin spaces, LS, PS, NNBSP, MMSP, ideographic space).
_FALLBACK_CLASS = (
    "[\u2e80-\U0010ffff"
    "\x0b\x1c-\x1f\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]"
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
        """Vectorized scoring: all counting metrics and per-language stopword
        hits are Arrow RE2 kernels over the whole column (a ``\\b(w1|w2|…)\\b``
        count equals token-set membership because every ``\\w+`` token is
        boundary-flanked); perplexity is one numpy gather over the batch and
        the duplicate-line fraction a dictionary encode of the batch's lines.
        Only ``_FALLBACK_CLASS`` rows (and every row when a fastText model or
        a word LM is loaded) become Python strings. Equivalence with the
        per-row reference scorer is pinned by
        tests/test_langquality_vectorized.py."""
        import numpy as np
        import pyarrow.compute as pc

        from safe_zone_ray.quality import _SYMBOL_RE_PATTERN

        # one chunk: dictionary codes and take indices are then batch-wide
        text_arr = pc.fill_null(batch.column("text_extracted"), "")
        if isinstance(text_arr, pa.ChunkedArray):
            text_arr = text_arr.combine_chunks()
        lower_arr = pc.utf8_lower(text_arr)
        n = batch.num_rows

        # Tokenise ONCE; everything token-derived (word count, word chars,
        # per-language stopword membership) comes from hash joins + segment
        # sums over the flattened token array — no per-language regex scan
        # of the text.
        flat, parent = tokenize(lower_arr)
        flat_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        n_words_a = np.bincount(parent, minlength=n).astype(np.int64)
        word_chars = np.bincount(parent, weights=flat_len, minlength=n)
        sym_hits = pc.count_substring_regex(text_arr, _SYMBOL_RE_PATTERN).to_numpy(
            zero_copy_only=False
        )
        denom = np.maximum(n_words_a, 1).astype(np.float64)
        mean_wl_a = np.where(n_words_a > 0, word_chars / denom, 0.0)
        sym_ratio_a = np.where(n_words_a > 0, sym_hits / denom, 0.0)

        # per-language stopword hits: ONE index_in hash join against the
        # union vocabulary, then numpy membership gathers per language
        idx = pc.fill_null(
            pc.index_in(flat, value_set=self._union_vocab), -1
        ).to_numpy(zero_copy_only=False)
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
        # Diacritic bonus, vectorized: one count kernel per language class
        # over the rows the reference scorer treats as non-ASCII (any
        # codepoint >= U+00C0 — the Spanish class contains ¿/¡ which are
        # BELOW that bound, so the gate matters). Other rows get bonus 0;
        # langid scores get the bonus, stopword_fraction doesn't.
        non_ascii = np.flatnonzero(
            pc.match_substring_regex(text_arr, "[À-\U0010FFFF]").to_numpy(
                zero_copy_only=False
            )
        )
        if len(non_ascii):
            from safe_zone_ray.langid import _DIACRITICS

            lower_na = lower_arr.take(non_ascii)
            for li, lang in enumerate(self._langs):
                dia = _DIACRITICS.get(lang)
                if not dia:
                    continue
                cnt = pc.count_substring_regex(lower_na, f"[{dia}]").to_numpy(
                    zero_copy_only=False
                )
                scores[li, non_ascii] += np.minimum(0.2, 0.02 * cnt)
        best = scores.argmax(axis=0)
        best_score = scores[best, np.arange(n)]

        # CJK and diacritic handling live entirely in the per-row non-ASCII
        # fallback below (such rows are never ASCII), so no extra kernels here.
        langs_out = np.array([self._langs[b] for b in best], dtype=object)
        score_out = np.minimum(1.0, best_score * 2.5)
        und = (best_score <= 0.0) | (n_words_a == 0)
        langs_out[und] = "und"
        score_out[und] = 0.0

        ppls = self.scorer.lm.perplexity_batch(lower_arr)
        dup_frac_a = _dup_line_fraction(text_arr)

        # Narrow per-row fallback: the unicode split class above makes the
        # vectorized path exact for all Latin/diacritic text, so only two
        # divergence classes remain — (a) rows with codepoints >= U+2E80,
        # where detect_language's CJK short-circuit applies, and (b) rows
        # containing whitespace RE2's \s doesn't match but Python's does
        # (\v, \x1c-\x1f, NEL, NBSP, ogham/general-punct spaces, LS/PS,
        # NNBSP, MMSP, ideographic space), which would skew the perplexity
        # normalisation. Both are ~absent from real web-extracted text.
        fallback = np.flatnonzero(
            pc.match_substring_regex(text_arr, _FALLBACK_CLASS).to_numpy(
                zero_copy_only=False
            )
        )
        if len(fallback):
            from safe_zone_ray.langid import detect_language

            rows = zip(
                fallback,
                text_arr.take(fallback).to_pylist(),
                lower_arr.take(fallback).to_pylist(),
            )
            for i, text, lower in rows:
                m = self.scorer.metrics(text, lower=lower)
                lang, score = detect_language(text, tokens=m.tokens)
                langs_out[i] = lang
                score_out[i] = score
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
            for i, text in enumerate(text_arr.to_pylist()):
                pred = self.ft_model.predict(text.replace("\n", " "), k=1)
                if pred:
                    langs_out[i], score_out[i] = pred[0][0], pred[0][1]
                else:
                    langs_out[i], score_out[i] = "und", 0.0

        # decision rules: np.select in the same fixed order as
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
        choices = [
            "quality:too_few_words",
            "quality:too_many_words",
            "quality:mean_word_length",
            "quality:symbol_ratio",
            "quality:stopword_fraction",
            "quality:duplicate_lines",
            "quality:perplexity",
        ]
        quality_reason = np.select(conditions, choices, default="").tolist()
        # independent per-rule bitmask (bit k = conditions[k]) for the
        # ablation report — computed HERE on the float64 arrays so borderline
        # values can never diverge from the drop_reason chain above
        quality_flags = np.zeros(n, dtype=np.int32)
        for _k, _cond in enumerate(conditions):
            quality_flags |= _cond.astype(np.int32) << _k

        langs, lang_scores = langs_out.tolist(), score_out.tolist()
        n_words = n_words_a.tolist()
        mean_wl = mean_wl_a.tolist()
        sym_ratio = sym_ratio_a.tolist()
        stop_frac = stop_frac_a.tolist()
        dup_frac = dup_frac_a.tolist()
        ppls = ppls.tolist()
        quality = pa.StructArray.from_arrays(
            [
                pa.array(n_words, pa.int32()),
                pa.array(mean_wl, pa.float32()),
                pa.array(sym_ratio, pa.float32()),
                pa.array(stop_frac, pa.float32()),
                pa.array(dup_frac, pa.float32()),
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
            batch.append_column("lang_id", pa.array(langs, pa.string()))
            .append_column("lang_score", pa.array(lang_scores, pa.float32()))
            .append_column("perplexity", pa.array(ppls, pa.float32()))
            .append_column("quality", quality)
            .append_column("quality_drop_reason", pa.array(quality_reason, pa.string()))
            .append_column("quality_flags", pa.array(quality_flags, pa.int32()))
        )
        if self.word_lm is not None:
            wppl = [self.word_lm.perplexity(t) for t in text_arr.to_pylist()]
            out = out.append_column("word_perplexity", pa.array(wppl, pa.float32()))
        return out


def tokenize(lower_arr: pa.Array):
    """The ``\\w+`` tokens of every row, flattened, and each token's row.

    Tokens are the runs of the UNICODE class ``[\\p{L}\\p{N}_]``, which
    matches Python's ``\\w+`` exactly for letters/digits/marks (the torture
    cases in tests/test_langquality_vectorized.py), so diacritic text stays
    on the vectorized path. Splitting on the complement directly costs one
    RE2 match per space; instead only the runs of characters that are
    neither word characters nor RE2 whitespace become a space, and
    ``utf8_split_whitespace`` splits the rest. Returns the non-empty tokens
    (an Arrow string array) and their row indices (numpy int)."""
    import pyarrow.compute as pc

    toks = pc.utf8_split_whitespace(
        pc.replace_substring_regex(lower_arr, r"[^\p{L}\p{N}_\s]+", " ")
    )
    flat = pc.list_flatten(toks)
    keep = pc.not_equal(flat, "")
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    return flat.filter(keep), parent[keep.to_numpy(zero_copy_only=False)]


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
