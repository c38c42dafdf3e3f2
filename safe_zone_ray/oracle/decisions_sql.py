"""DuckDB SQL oracle for the flagship quality-filter pipeline.

Builds, programmatically from the SAME constants the Ray kernels use
(``rules/registry.json``, ``langid.PROFILES``, the embedded char-bigram LM
sample, ``QualityConfig`` defaults), a single ``WITH RECURSIVE`` chain that
recomputes — in pure DuckDB SQL, with no Python UDFs — every stage of
``pipelines/quality_filter.build_quality_filter``:

    pages → extract (frozen HTML→text spec) → langid + quality metrics +
    char-bigram perplexity → PII candidate scan (20 regex patterns +
    blocklist, with allowlist filtering, per-candidate confidence, the
    (start ASC, end DESC, insertion-order) stable sort, the greedy overlap
    filter as a recursive CTE) → placeholder splice (sha256-derived ids) →
    keep/drop decision fusion.

The driver's correctness gate then compares the Ray pipeline's output against
this chain row-for-row (row count + schema + order-insensitive value hash).

Corpus-scoped simplifications (each asserted by tests on the synthesized
corpus, ``tests/test_decisions_oracle.py``):

- ``html.unescape`` is reduced to the five common entities (the synthesized
  corpus contains no ``&name;`` sequences at all, so this is identity);
- the CJK short-circuit of ``langid.detect_language`` is omitted (the corpus
  contains no codepoints >= U+2E80);
- ``pii_blocked`` is ``max(kept-detection confidence) >= block_threshold`` —
  exactly ``detect_one``'s action loop for the default config, where neither
  validators nor BLOCK mode contribute (guardrails=() and mode=MASK).

Float caveat: perplexity is a sum of ~2000 float64 logs; numpy and DuckDB may
disagree in the last ulp, which only matters for documents within ~1e-9 of
``max_perplexity``. ``tests/test_decisions_oracle.py`` asserts the corpus has
a wide safety margin around the threshold.
"""

from __future__ import annotations

import re

from safe_zone_ray.core.confidence import (
    ConfidenceContext,
    compute_confidence,
    round_confidence,
)
from safe_zone_ray.langid import _DIACRITICS, LANGS, PROFILES
from safe_zone_ray.quality import QualityConfig, _SYMBOL_RE_PATTERN, CharBigramLM
from safe_zone_ray.registry import load_registry

# ---------------------------------------------------------------------------
# helpers


def _q(s: str) -> str:
    """Escape a string for a standard (non-E) single-quoted SQL literal.
    DuckDB standard literals pass backslashes through verbatim, so a Python
    regex pattern string embeds unchanged apart from quote doubling."""
    return s.replace("'", "''")


def _f(v: float) -> str:
    """Full-precision float literal (repr round-trips float64 exactly)."""
    return repr(float(v))


def pages_glob_for(sf_dir: str, variants: int = 4) -> str:
    """The deterministic parquet glob for ``sf_dir``'s synthesized pages
    (mirrors ``pages.synthesize_pages_dir``'s cache path)."""
    import os

    from safe_zone_ray.pages import GENERATOR_VERSION

    sf_name = os.path.basename(os.path.normpath(sf_dir))
    return f"/tmp/szr_pages/{sf_name}_{GENERATOR_VERSION}_x{variants}/*.parquet"


# ---------------------------------------------------------------------------
# extraction (mirrors safe_zone_ray/extract.py, the frozen spec)

_DROP_TAGS = ("script", "style", "noscript", "template")


def _extract_expr(col: str) -> str:
    """SQL expression: frozen HTML→text extraction of VARCHAR column ``col``.

    RE2 has no backreferences, so the reference's ``<(script|…)…</\\1>`` is
    expanded into one alternation branch per tag (equivalent: each branch
    pins the same open/close tag the backreference would). The RE2-safe
    tag-end / whitespace constructions are shared with the vectorized Arrow
    extractor (``extract._TAG_END`` / ``_PY_WS`` — see the \\b divergence
    note there).

    A row whose html has a tag name spelled with ı, İ, ſ or the Kelvin sign
    (``extract._TAG_NAME_CASE_FOLD``) raises instead: RE2's case folding
    differs from the frozen extractor's there, and no RE2 spelling decides
    such a tag. The Arrow chain reruns these rows in Python; SQL cannot."""
    from safe_zone_ray.extract import _PY_WS, _TAG_END, _TAG_NAME_CASE_FOLD

    _BLOCK_TAG_SQL = (
        r"(?i)</?(?:p|div|br|li|ul|ol|tr|td|th|table|h[1-6]|title|head|body|html|nav|header|"
        r"footer|section|article|aside|main|blockquote|pre|form|hr|figure|figcaption|dl|dt|dd)"
        + _TAG_END
    )
    drop = "|".join(rf"<{t}{_TAG_END}.*?</{t}{_PY_WS}*>" for t in _DROP_TAGS)
    e = col
    e = f"regexp_replace({e}, '(?s)<!--.*?-->', ' ', 'g')"
    e = f"regexp_replace({e}, '(?is){_q(drop)}', ' ', 'g')"
    e = f"regexp_replace({e}, '{_q(_BLOCK_TAG_SQL)}', chr(10), 'g')"
    e = f"regexp_replace({e}, '<[^>]+>', '', 'g')"
    # html.unescape, reduced to the common entities (corpus contains none —
    # asserted by test_decisions_oracle; &amp; must be replaced last)
    for ent, ch in (("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&#39;", "''"), ("&amp;", "&")):
        e = f"replace({e}, '{ent}', '{ch}')"
    e = f"regexp_replace({e}, '[\\x{{200B}}\\x{{200C}}\\x{{200D}}\\x{{FEFF}}]', '', 'g')"
    e = f"regexp_replace({e}, '[ \\t\\r\\f\\v\\x{{00A0}}]+', ' ', 'g')"
    e = f"regexp_replace({e}, ' ?\\n ?', chr(10), 'g')"
    e = f"regexp_replace({e}, '\\n+', chr(10), 'g')"
    e = f"trim({e}, ' ' || chr(10))"
    return (
        f"CASE WHEN regexp_matches({col}, '{_q(_TAG_NAME_CASE_FOLD)}') "
        "THEN error('html tag name with ı, İ, ſ or the Kelvin sign: RE2 case "
        "folding differs from the frozen extractor, so SQL cannot extract it') "
        f"ELSE {e} END"
    )


# ---------------------------------------------------------------------------
# char-bigram LM lookup tables (mirrors quality.CharBigramLM exactly: the
# VALUES literals are read straight out of the prebuilt log-prob matrix)


def _lm_tables() -> tuple[str, str, str, str]:
    """Returns (pair_values, first_values, default_lp, vocab_size) SQL
    fragments. ``pair_values`` rows are (4-hex-char byte pair, logp) for every
    observed bigram; ``first_values`` rows are (2-hex-char first byte,
    fallback logp) for every byte seen as a bigram head; ``default_lp`` is the
    logp for a never-seen head byte."""
    import numpy as np

    from safe_zone_ray.quality import _LM_SAMPLE

    sample = re.sub(r"\s+", " ", _LM_SAMPLE.lower()).strip()
    data = np.frombuffer(sample.encode("utf-8", "replace"), dtype=np.uint8)
    counts = np.zeros((256, 256), dtype=np.float64)
    np.add.at(counts, (data[:-1], data[1:]), 1.0)
    lm = CharBigramLM()
    logp = lm._logp
    vocab = lm._vocab_size

    pair_rows, first_rows = [], []
    unseen_head_lp = None
    for a in range(256):
        tot = counts[a].sum()
        if tot > 0:
            unseen_b = int(np.argmin(counts[a]))  # any b with count 0
            first_rows.append(f"('{a:02X}', {_f(logp[a, unseen_b])})")
            for b in np.nonzero(counts[a])[0]:
                pair_rows.append(f"('{a:02X}{b:02X}', {_f(logp[a, b])})")
        elif unseen_head_lp is None:
            unseen_head_lp = logp[a, 0]
    return (
        ",\n    ".join(pair_rows),
        ",\n    ".join(first_rows),
        _f(unseen_head_lp),
        _f(float(vocab)),
    )


# ---------------------------------------------------------------------------
# the chain


def build_chain(pages_glob: str) -> str:
    """The full CTE chain (everything after ``WITH RECURSIVE``)."""
    reg = load_registry()
    qc = QualityConfig()
    pair_values, first_values, default_lp, vocab_f = _lm_tables()

    # --- language profile joins -------------------------------------------
    def in_list(words) -> str:
        return ", ".join(f"'{_q(w)}'" for w in sorted(words))

    hit_cols = ",\n      ".join(
        f"count(*) FILTER (WHERE tok IN ({in_list(PROFILES[lang])})) AS hits_{lang}"
        for lang in LANGS
    )
    bonus_exprs = {}
    for lang in LANGS:
        dia = _DIACRITICS.get(lang)
        if dia:
            bonus_exprs[lang] = (
                f"CASE WHEN n.non_ascii THEN least(0.2, 0.02 * "
                f"len(regexp_extract_all(n.lower_text, '[{_q(dia)}]'))) ELSE 0.0 END"
            )
        else:
            bonus_exprs[lang] = "0.0"
    languv = "\n    UNION ALL ".join(
        f"SELECT t.url, '{lang}' AS lang, {i} AS ord, "
        f"t.hits_{lang} / CAST(t.n_words AS DOUBLE) + {bonus_exprs[lang]} AS score "
        f"FROM tokstats t JOIN norm n USING (url)"
        for i, lang in enumerate(LANGS)
    )

    # --- PII candidate scan ------------------------------------------------
    # Candidate sources in detect_one insertion order: blocklist words first
    # (ord 0..), then active patterns in registry order (ord 100..). The
    # split/extract interleave recovers Python finditer start offsets:
    #   start(g) = Σ_{k<=g} len(seg_k) + Σ_{k<g} len(match_k)   (0-based)
    allow = ", ".join(f"'{_q(v)}'" for v in sorted(reg.allowlist))
    sources = []  # (cte_suffix, rx, type, conf, ord, allowlist_filtered)
    for i, w in enumerate(reg.blocklist):
        sources.append((f"b{i}", re.escape(w), "BLOCKLIST", 0.0, i, False))
    for i, p in enumerate(reg.patterns):
        if not p.is_active:
            continue
        conf = round_confidence(
            compute_confidence(
                ConfidenceContext(
                    pattern_category=p.category, pattern_active=p.is_active, source="REGEX"
                )
            )
        )
        sources.append((f"p{i}", p.regex, p.name, conf, 100 + i, True))

    cand_ctes, cand_selects = [], []
    for suf, rx, typ, conf, ordv, filtered in sources:
        rxq = _q(rx)
        cand_ctes.append(
            f"""m_{suf} AS (
    SELECT url, regexp_extract_all(text, '{rxq}') AS M, regexp_split_to_array(text, '{rxq}') AS S
    FROM norm WHERE regexp_matches(text, '{rxq}')
  ),
  c_{suf} AS (
    SELECT url, M[g] AS val,
      CAST(sum(length(S[g])) OVER (PARTITION BY url ORDER BY g ROWS UNBOUNDED PRECEDING)
        + COALESCE(sum(length(M[g])) OVER (PARTITION BY url ORDER BY g
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS mstart
    FROM m_{suf}, LATERAL unnest(generate_series(1, len(M))) t(g)
  )"""
        )
        where = f"WHERE val NOT IN ({allow})" if filtered else ""
        cand_selects.append(
            f"SELECT url, '{_q(typ)}' AS type, val, mstart, mstart + length(val) AS mend, "
            f"{_f(conf)} AS conf, {ordv} AS ord FROM c_{suf} {where}"
        )

    lang_allowed = ", ".join(f"'{_q(x)}'" for x in ("en",))
    block_threshold = _f(reg.block_threshold)

    sym = _q(_SYMBOL_RE_PATTERN)
    cand_ctes_sql = ",\n  ".join(cand_ctes)
    cand_union_sql = "\n    UNION ALL ".join(cand_selects)

    # the seven quality-rule predicates, each used TWICE below (the
    # drop_reason priority CASE and the independent quality_flags bitmask
    # for the ablation report) — single definition so they cannot drift
    q_too_few = f"COALESCE(t.n_words, 0) < {qc.min_words}"
    q_too_many = f"COALESCE(t.n_words, 0) > {qc.max_words}"
    q_mwl = (
        "NOT (CASE WHEN COALESCE(t.n_words, 0) > 0\n"
        "                       THEN CAST(t.word_chars AS DOUBLE) / t.n_words ELSE 0.0 END\n"
        f"                  BETWEEN {_f(qc.min_mean_word_len)} AND {_f(qc.max_mean_word_len)})"
    )
    q_sym = (
        "(CASE WHEN COALESCE(t.n_words, 0) > 0\n"
        "                   THEN CAST(n.sym_hits AS DOUBLE) / t.n_words ELSE 0.0 END)\n"
        f"             > {_f(qc.max_symbol_word_ratio)}"
    )
    q_stop = (
        "(CASE WHEN COALESCE(t.n_words, 0) > 0\n"
        "                   THEN CAST(t.hits_en AS DOUBLE) / t.n_words ELSE 0.0 END)\n"
        f"             < {_f(qc.min_stopword_fraction)}"
    )
    q_dup = (
        "COALESCE(1.0 - CAST(ls.n_uniq AS DOUBLE) / ls.n_lines, 0.0)\n"
        f"             > {_f(qc.max_dup_line_fraction)}"
    )
    q_ppl = f"COALESCE(p.ppl, {vocab_f}) > {_f(qc.max_perplexity)}"

    return f"""
  pages AS (
    SELECT url, html, text FROM read_parquet('{pages_glob}')
  ),
  extracted AS (
    SELECT url,
      regexp_extract(url, '://([^/]+)', 1) AS host,
      COALESCE(text, {_extract_expr("decode(html)")}) AS text
    FROM pages
  ),
  norm AS (
    SELECT url, host, text, lower(text) AS lower_text,
      regexp_matches(text, '[\\x{{00C0}}-\\x{{10FFFF}}]') AS non_ascii,
      len(regexp_extract_all(text, '{sym}')) AS sym_hits
    FROM extracted
  ),
  tok AS (
    SELECT url, t.tok
    FROM norm, LATERAL unnest(regexp_extract_all(lower_text, '[\\p{{L}}\\p{{N}}_]+')) t(tok)
  ),
  tokstats AS (
    SELECT url, count(*) AS n_words, sum(length(tok)) AS word_chars,
      {hit_cols}
    FROM tok GROUP BY url
  ),
  languv AS (
    {languv}
  ),
  langbest AS (
    SELECT url, lang, score FROM (
      SELECT *, row_number() OVER (PARTITION BY url ORDER BY score DESC, ord) AS rn
      FROM languv) WHERE rn = 1
  ),
  langid AS (
    SELECT url, CASE WHEN score <= 0.0 THEN 'und' ELSE lang END AS lang_id FROM langbest
  ),
  linestats AS (
    SELECT url, count(*) AS n_lines, count(DISTINCT line) AS n_uniq
    FROM (SELECT url, t.line FROM norm, LATERAL unnest(string_split(text, chr(10))) t(line))
    WHERE trim(line) <> '' GROUP BY url
  ),
  pplin AS (
    SELECT url, trim(regexp_replace(lower(substring(text, 1, 2000)), '\\s+', ' ', 'g')) AS s
    FROM norm
  ),
  pplhex AS (SELECT url, hex(s) AS hx, strlen(s) AS nb FROM pplin),
  pplpair AS (
    SELECT url, substr(hx, 2 * g - 1, 4) AS p4
    FROM pplhex, LATERAL unnest(generate_series(1, nb - 1)) t(g)
    WHERE nb >= 2
  ),
  lmpair(p4, lp) AS (VALUES
    {pair_values}
  ),
  lmfirst(b1, lp) AS (VALUES
    {first_values}
  ),
  ppl AS (
    SELECT pp.url, exp(-sum(COALESCE(lmpair.lp, lmfirst.lp, {default_lp})) / count(*)) AS ppl
    FROM pplpair pp
    LEFT JOIN lmpair ON pp.p4 = lmpair.p4
    LEFT JOIN lmfirst ON substr(pp.p4, 1, 2) = lmfirst.b1
    GROUP BY pp.url
  ),
  {cand_ctes_sql},
  cand AS (
    {cand_union_sql}
  ),
  rcand AS (
    SELECT *, row_number() OVER (PARTITION BY url ORDER BY mstart, mend DESC, ord) AS rn
    FROM cand
  ),
  greedy AS (
    SELECT url, rn, type, val, mstart, mend, conf, true AS kept, mend AS cur_end
    FROM rcand WHERE rn = 1
    UNION ALL
    SELECT c.url, c.rn, c.type, c.val, c.mstart, c.mend, c.conf,
      c.mstart >= g.cur_end AS kept,
      CASE WHEN c.mstart >= g.cur_end THEN c.mend ELSE g.cur_end END AS cur_end
    FROM greedy g JOIN rcand c ON c.url = g.url AND c.rn = g.rn + 1
  ),
  kept AS (SELECT * FROM greedy WHERE kept),
  splice AS (
    SELECT k.url,
      string_agg(
        substring(n.text, k.prev_end + 1, k.mstart - k.prev_end) ||
        CASE WHEN k.type = 'BLOCKLIST' THEN '[BLOCKED]'
             ELSE '[' || k.url || '_' || k.type || '_' ||
                  substr(sha256(k.url || '|' || k.type || '|' ||
                                CAST(k.mstart AS VARCHAR) || '|' || CAST(k.mend AS VARCHAR)), 1, 16) || ']'
        END, '' ORDER BY k.rn) AS body,
      max(k.mend) AS last_end
    FROM (SELECT *, COALESCE(lag(mend) OVER (PARTITION BY url ORDER BY rn), 0) AS prev_end
          FROM kept) k
    JOIN norm n USING (url)
    GROUP BY k.url
  ),
  scrub AS (
    SELECT s.url, s.body || substring(n.text, s.last_end + 1) AS scrubbed
    FROM splice s JOIN norm n USING (url)
  ),
  piicount AS (SELECT url, count(*) AS n_cand FROM cand GROUP BY url),
  keptconf AS (SELECT url, max(conf) AS max_conf FROM kept GROUP BY url),
  decisions AS (
    SELECT n.url, n.host,
      COALESCE(li.lang_id, 'und') AS lang_id,
      COALESCE(pc.n_cand, 0) > 0 AS contains_pii,
      COALESCE(kc.max_conf >= {block_threshold}, false) AS pii_blocked,
      COALESCE(sc.scrubbed, n.text) AS scrubbed_text,
      CASE
        WHEN COALESCE(kc.max_conf >= {block_threshold}, false) THEN 'blocked_pii'
        WHEN COALESCE(li.lang_id, 'und') NOT IN ({lang_allowed}) THEN 'lang'
        WHEN {q_too_few} THEN 'quality:too_few_words'
        WHEN {q_too_many} THEN 'quality:too_many_words'
        WHEN {q_mwl}
          THEN 'quality:mean_word_length'
        WHEN {q_sym} THEN 'quality:symbol_ratio'
        WHEN {q_stop} THEN 'quality:stopword_fraction'
        WHEN {q_dup} THEN 'quality:duplicate_lines'
        WHEN {q_ppl} THEN 'quality:perplexity'
        ELSE ''
      END AS drop_reason,
      (CASE WHEN {q_too_few} THEN 1 ELSE 0 END)
      + (CASE WHEN {q_too_many} THEN 2 ELSE 0 END)
      + (CASE WHEN {q_mwl} THEN 4 ELSE 0 END)
      + (CASE WHEN {q_sym} THEN 8 ELSE 0 END)
      + (CASE WHEN {q_stop} THEN 16 ELSE 0 END)
      + (CASE WHEN {q_dup} THEN 32 ELSE 0 END)
      + (CASE WHEN {q_ppl} THEN 64 ELSE 0 END) AS quality_flags
    FROM norm n
    LEFT JOIN langid li USING (url)
    LEFT JOIN tokstats t USING (url)
    LEFT JOIN linestats ls USING (url)
    LEFT JOIN ppl p USING (url)
    LEFT JOIN piicount pc USING (url)
    LEFT JOIN keptconf kc USING (url)
    LEFT JOIN scrub sc USING (url)
  ),
  final AS (SELECT *, drop_reason = '' AS keep FROM decisions)"""


def sql_for(select: str, pages_glob: str) -> str:
    """A complete query: the chain plus a final SELECT (which may reference
    any CTE — ``final``, ``kept``, ``tokstats``, ...)."""
    return f"WITH RECURSIVE {build_chain(pages_glob)}\n{select}"


def decision_oracle_sqls(pages_glob: str) -> dict[str, str]:
    """Oracle SQL strings for the flagship queries, keyed by queries() name.
    Column names match the Ray results exactly (driver hash contract)."""
    out = {
        "quality_filter_decisions": sql_for(
            "SELECT url, host, lang_id, contains_pii, pii_blocked, keep, drop_reason FROM final",
            pages_glob,
        ),
        "kept_corpus": sql_for(
            "SELECT url, host, lang_id, scrubbed_text FROM final WHERE keep",
            pages_glob,
        ),
        "per_host_keep_stats": sql_for(
            "SELECT host, CAST(sum(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,"
            " count(*) AS n_total FROM final GROUP BY host",
            pages_glob,
        ),
        "drop_reason_histogram": sql_for(
            "SELECT drop_reason, count(*) AS n_docs FROM final GROUP BY drop_reason",
            pages_glob,
        ),
        "pii_type_histogram": sql_for(
            "SELECT type, CAST(count(*) AS BIGINT) AS n_detections FROM kept GROUP BY type",
            pages_glob,
        ),
        "guardrail_violations": guardrail_oracle_sql(pages_glob),
        # training-mix report: tokens entering the training set per language
        "kept_tokens_by_lang": sql_for(
            "SELECT f.lang_id, CAST(sum(COALESCE(t.n_words, 0)) AS BIGINT) AS n_tokens,"
            " count(*) AS n_docs FROM final f LEFT JOIN tokstats t USING (url)"
            " WHERE f.keep GROUP BY f.lang_id",
            pages_glob,
        ),
        # PII pressure per host: kept detections per host across the corpus
        "pii_per_host": sql_for(
            "SELECT n.host, CAST(count(*) AS BIGINT) AS n_detections"
            " FROM kept k JOIN norm n USING (url) GROUP BY n.host",
            pages_glob,
        ),
        # span locality: kept detections bucketed by relative offset decile
        "pii_position_histogram": sql_for(
            "SELECT k.type,"
            " CAST(least(9, (10 * k.mstart) // length(n.text)) AS BIGINT) AS pos_decile,"
            " CAST(count(*) AS BIGINT) AS n_detections"
            " FROM kept k JOIN norm n USING (url)"
            " GROUP BY k.type, least(9, (10 * k.mstart) // length(n.text))",
            pages_glob,
        ),
        # keep-rate calibration by log2 word-count bucket (bit length of
        # n_words; exact-integer ppm rate — no float anywhere)
        "keep_rate_by_length_bucket": sql_for(
            """, lb_rows AS (
    SELECT CASE WHEN COALESCE(t.n_words, 0) = 0 THEN 0
                ELSE CAST(length(bin(COALESCE(t.n_words, 0))) AS BIGINT)
           END AS length_bucket,
           CASE WHEN f.keep THEN 1 ELSE 0 END AS kept
    FROM final f LEFT JOIN tokstats t USING (url))
  SELECT length_bucket, count(*) AS n_docs,
         CAST(sum(kept) AS BIGINT) AS n_kept,
         (CAST(sum(kept) AS BIGINT) * 1000000) // count(*) AS keep_rate_ppm
  FROM lb_rows GROUP BY length_bucket ORDER BY length_bucket""",
            pages_glob,
        ),
        # masking-cost audit: span chars removed per type
        "scrub_reduction_by_type": sql_for(
            "SELECT type, CAST(sum(mend - mstart) AS BIGINT) AS chars_removed,"
            " CAST(count(*) AS BIGINT) AS n_detections"
            " FROM kept GROUP BY type",
            pages_glob,
        ),
        # keep-rate drift per crawl day (integer days since epoch, ppm rate)
        "keep_rate_by_crawl_day": sql_for(
            f""", cd_rows AS (
    SELECT epoch_us(p.warc_ts) // 86400000000 AS crawl_day,
           CASE WHEN f.keep THEN 1 ELSE 0 END AS kept
    FROM final f JOIN read_parquet('{pages_glob}') p USING (url))
  SELECT crawl_day, count(*) AS n_docs,
         CAST(sum(kept) AS BIGINT) AS n_kept,
         (CAST(sum(kept) AS BIGINT) * 1000000) // count(*) AS keep_rate_ppm
  FROM cd_rows GROUP BY crawl_day""",
            pages_glob,
        ),
        # kept-detection confidence distribution per type (centi buckets —
        # registry confidences are 2-dp by construction, so exact)
        "pii_confidence_histogram": sql_for(
            "SELECT k.type, CAST(round(k.conf * 100) AS BIGINT) AS conf_centi,"
            " CAST(count(*) AS BIGINT) AS n_detections"
            " FROM kept k GROUP BY k.type, round(k.conf * 100)",
            pages_glob,
        ),
        # per-host Simpson language-collision index (exact integer ppm)
        "host_lang_diversity": sql_for(
            """, hl AS (
    SELECT host, lang_id, CAST(count(*) AS BIGINT) AS c
    FROM final GROUP BY host, lang_id)
  SELECT host, CAST(sum(c) AS BIGINT) AS n_docs, count(*) AS n_langs,
         CASE WHEN CAST(sum(c) AS BIGINT) > 1
              THEN (CAST(sum(c * (c - 1)) AS BIGINT) * 1000000)
                   // (CAST(sum(c) AS BIGINT) * (CAST(sum(c) AS BIGINT) - 1))
              ELSE 0 END AS simpson_ppm
  FROM hl GROUP BY host""",
            pages_glob,
        ),
        # per-rule ablation: independent flag / unique-drop / priority
        # attribution over the same decisions chain (quality bits from the
        # quality_flags bitmask the chain now emits)
        "quality_filter_rule_ablation": sql_for(
            """, ab_rows AS (
    SELECT pii_blocked,
           lang_id NOT IN ('en') AS lang_bad,
           quality_flags, drop_reason,
           (CASE WHEN pii_blocked THEN 1 ELSE 0 END)
           + (CASE WHEN lang_id NOT IN ('en') THEN 1 ELSE 0 END)
           + bit_count(quality_flags) AS nf
    FROM final
  ),
  ab_rules(rule_id, rule) AS (VALUES
    (0, 'blocked_pii'), (1, 'lang'), (2, 'quality:too_few_words'),
    (3, 'quality:too_many_words'), (4, 'quality:mean_word_length'),
    (5, 'quality:symbol_ratio'), (6, 'quality:stopword_fraction'),
    (7, 'quality:duplicate_lines'), (8, 'quality:perplexity')),
  ab_flagged AS (
    SELECT r.rule_id, r.rule,
           CASE r.rule_id WHEN 0 THEN f.pii_blocked
                          WHEN 1 THEN f.lang_bad
                          ELSE ((f.quality_flags >> (r.rule_id - 2)) & 1) = 1
           END AS flag,
           f.nf, f.drop_reason
    FROM ab_rows f CROSS JOIN ab_rules r)
  SELECT rule,
         CAST(sum(CASE WHEN flag THEN 1 ELSE 0 END) AS BIGINT) AS n_flagged,
         CAST(sum(CASE WHEN flag AND nf = 1 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_unique_drops,
         CAST(sum(CASE WHEN drop_reason = rule THEN 1 ELSE 0 END) AS BIGINT)
             AS n_attributed
  FROM ab_flagged GROUP BY rule_id, rule ORDER BY rule_id""",
            pages_glob,
        ),
        # rule x rule co-occurrence (companion to the ablation report)
        "quality_filter_rule_overlap": sql_for(
            """, ov_rows AS (
    SELECT url, pii_blocked,
           lang_id NOT IN ('en') AS lang_bad,
           quality_flags
    FROM final
  ),
  ov_rules(rule_id, rule) AS (VALUES
    (0, 'blocked_pii'), (1, 'lang'), (2, 'quality:too_few_words'),
    (3, 'quality:too_many_words'), (4, 'quality:mean_word_length'),
    (5, 'quality:symbol_ratio'), (6, 'quality:stopword_fraction'),
    (7, 'quality:duplicate_lines'), (8, 'quality:perplexity')),
  ov_flags AS (
    SELECT f.url, r.rule_id, r.rule,
           CASE r.rule_id WHEN 0 THEN f.pii_blocked
                          WHEN 1 THEN f.lang_bad
                          ELSE ((f.quality_flags >> (r.rule_id - 2)) & 1) = 1
           END AS flag
    FROM ov_rows f CROSS JOIN ov_rules r)
  SELECT a.rule AS rule_a, b.rule AS rule_b,
         CAST(sum(CASE WHEN a.flag AND b.flag THEN 1 ELSE 0 END) AS BIGINT)
             AS n_both
  FROM ov_flags a JOIN ov_flags b ON a.url = b.url
  GROUP BY a.rule_id, a.rule, b.rule_id, b.rule
  ORDER BY a.rule_id, b.rule_id""",
            pages_glob,
        ),
    }
    return out


def guardrail_oracle_sql(pages_glob: str) -> str:
    """Oracle for the corpus-safety guardrail run (validators
    TOXIC_LANGUAGE / PROMPT_INJECTION / PCI_STRICT over extracted text):
    per-validator count of failing documents. Mirrors
    ``core/validators.validate_format`` — KEYWORDS is a deny-list containment
    check, the REGEX validator is pass_when=no_match, PCI_STRICT is the
    13-19-digit Luhn scan of ``core/checksums.contains_luhn_valid_pan``."""
    reg = load_registry()
    vmap = reg.validator_by_name()

    toxic = " OR ".join(
        f"lower_text LIKE '%{_q(k.lower())}%'" for k in reg.toxicity_keywords
    )
    inj_rule = _q(vmap["PROMPT_INJECTION"].rule)
    digit_run = _q(r"\b(?:\d[ -]?){12,18}\d\b")

    select = f"""
  , runs AS (
    SELECT url, g AS ri, A[g] AS run FROM (
      SELECT url, regexp_extract_all(text, '{digit_run}') AS A FROM norm
      WHERE regexp_matches(text, '{digit_run}')
    ), LATERAL unnest(generate_series(1, len(A))) t(g)
  ),
  digs AS (SELECT url, ri, regexp_replace(run, '[^0-9]', '', 'g') AS ds FROM runs),
  luhn AS (
    SELECT url, ri, max(L) AS L,
      sum(CASE WHEN (L - g) % 2 = 1
               THEN CASE WHEN 2 * d > 9 THEN 2 * d - 9 ELSE 2 * d END
               ELSE d END) AS tot
    FROM (SELECT url, ri, length(ds) AS L, g, CAST(substr(ds, g, 1) AS INTEGER) AS d
          FROM digs, LATERAL unnest(generate_series(1, length(ds))) t(g))
    GROUP BY url, ri
  ),
  pci_fail AS (SELECT DISTINCT url FROM luhn WHERE L BETWEEN 13 AND 19 AND tot % 10 = 0),
  gv AS (
    SELECT 'TOXIC_LANGUAGE' AS validator, count(*) AS nf FROM norm WHERE {toxic}
    UNION ALL
    SELECT 'PROMPT_INJECTION', count(*) FROM norm WHERE regexp_matches(text, '{inj_rule}')
    UNION ALL
    SELECT 'PCI_STRICT', count(*) FROM norm WHERE url IN (SELECT url FROM pci_fail)
  )
  SELECT validator, CAST(nf AS BIGINT) AS n_failed FROM gv WHERE nf > 0"""
    return f"WITH RECURSIVE {build_chain(pages_glob)}{select}"


def ann_oracle_sql(query_ids: tuple[int, ...] = (0, 1, 2), k: int = 10) -> str:
    """Oracle for the hyperplane-LSH ANN queries (``ann_lsh_topk`` and the
    bucket-partitioned ``ann_partitioned_topk`` — same semantics by design):
    the LSH is seeded and deterministic, so DuckDB can recompute the exact
    same signatures (the plane matrix is embedded as DOUBLE[] literals),
    probe set (1-bit multiprobe), candidate buckets and cosine top-k.
    Tie-break ORDER BY sim DESC, vec_id DESC matches the Ray merge's
    (cos_sim, vec_id) tuple order."""
    import numpy as np

    from safe_zone_ray.functions.similarity import _N_PLANES, _PLANES_SEED

    rng = np.random.RandomState(_PLANES_SEED)
    # dim is data-dependent; embed plane rows lazily wide (the embeddings
    # tables in all sf dirs share dim, probed here via DuckDB at run time is
    # impossible in a static string — use the canonical testdata dim)
    import pyarrow.parquet as pq

    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet", columns=["embedding"])
    dim = len(t.column("embedding")[0])
    planes = rng.randn(_N_PLANES, dim)
    plane_rows = ",\n    ".join(
        f"({i}, [{', '.join(repr(float(x)) for x in planes[i])}]::DOUBLE[])"
        for i in range(_N_PLANES)
    )
    qlist = ", ".join(str(int(q)) for q in query_ids)
    return f"""
WITH planes(plane_id, w) AS (VALUES
    {plane_rows}
),
emb AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
sigs AS (
  SELECT vec_id,
    CAST(sum(CASE WHEN list_inner_product(e, w) > 0
                  THEN 1 << plane_id ELSE 0 END) AS BIGINT) AS sig
  FROM emb CROSS JOIN planes GROUP BY vec_id
),
qs AS (
  SELECT e.vec_id AS query_id, e.e AS qe, s.sig AS qsig
  FROM emb e JOIN sigs s USING (vec_id) WHERE e.vec_id IN ({qlist})
),
probe AS (
  -- ONE probe set shared by all queries (the Ray kernels broadcast the
  -- union of every query's bucket + 1-bit neighbours and score each hit
  -- against ALL queries)
  SELECT DISTINCT p FROM (
    SELECT qsig AS p FROM qs
    UNION ALL
    SELECT xor(qsig, 1 << b) AS p
    FROM qs, LATERAL unnest(generate_series(0, {_N_PLANES - 1})) t(b))
),
cand AS (
  SELECT DISTINCT s.vec_id FROM probe pr JOIN sigs s ON s.sig = pr.p
),
scored AS (
  SELECT q.query_id, c.vec_id, list_cosine_similarity(q.qe, e.e) AS sim
  FROM cand c CROSS JOIN qs q JOIN emb e ON e.vec_id = c.vec_id
),
r AS (
  SELECT query_id, vec_id, sim,
    row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, vec_id DESC) AS rn
  FROM scored)
SELECT query_id, vec_id, round(sim, 4) AS cos_sim FROM r WHERE rn <= {k}"""


# Winnowing constants mirrored from functions/textstats.py (k=5, w=4, B=257,
# M=2^31-1): B^1..B^4 as plain integers — the direct polynomial mod M equals
# Python's incremental rolling-hash residue.
def winnow_oracle_sql() -> str:
    """Oracle for ``doc_winnow_fingerprints`` over the registered ``documents``
    view: Rabin-Karp k-gram hashes via unicode()*B^j polynomials, then the
    rightmost-minimum-per-window selection (Schleimer et al. 2003). The
    selected positions are provably nondecreasing as the window slides, so
    the Python 'skip if same as last' dedup equals DISTINCT over selected
    positions."""
    from safe_zone_ray.functions.textstats import WINNOW_K, WINNOW_W

    assert WINNOW_K == 5 and WINNOW_W == 4, "SQL below is specialized to k=5, w=4"
    B, M = 257, (1 << 31) - 1
    p1, p2, p3, p4 = B, B * B, B**3, B**4
    return f"""
WITH wn AS (
  SELECT doc_id, trim(regexp_replace(lower(COALESCE(text, '')), '\\s+', ' ', 'g')) AS s
  FROM documents
),
wh AS (
  SELECT doc_id, g AS pos,
    (unicode(substr(s, g, 1)) * {p4} + unicode(substr(s, g + 1, 1)) * {p3}
     + unicode(substr(s, g + 2, 1)) * {p2} + unicode(substr(s, g + 3, 1)) * {p1}
     + unicode(substr(s, g + 4, 1))) % {M} AS h
  FROM wn, LATERAL unnest(generate_series(1, length(s) - 4)) t(g)
  WHERE length(s) >= 5
),
wcnt AS (SELECT doc_id, count(*) AS nk FROM wh GROUP BY doc_id),
small AS (
  SELECT wh.doc_id, min(h) AS fingerprint FROM wh JOIN wcnt USING (doc_id)
  WHERE nk <= 4 GROUP BY wh.doc_id
),
wj AS (
  SELECT a.doc_id, a.pos AS p, b.pos AS j, b.h,
    row_number() OVER (PARTITION BY a.doc_id, a.pos ORDER BY b.h ASC, b.pos DESC) AS rk
  FROM wh a
  JOIN wh b ON b.doc_id = a.doc_id AND b.pos BETWEEN a.pos AND a.pos + 3
  JOIN wcnt c ON c.doc_id = a.doc_id
  WHERE c.nk > 4 AND a.pos <= c.nk - 3
),
sel AS (SELECT DISTINCT doc_id, j, h FROM wj WHERE rk = 1)
SELECT doc_id, fingerprint FROM small
UNION ALL SELECT doc_id, h AS fingerprint FROM sel"""
