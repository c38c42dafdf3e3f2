"""The vectorized batch scorer must be numerically equivalent to the per-row
reference implementation (QualityScorer.metrics + detect_language)."""

import math

import pyarrow.parquet as pq
import pytest

from safe_zone_ray.langid import detect_language
from safe_zone_ray.pages import pages_from_documents_batch
from safe_zone_ray.quality import QualityScorer
from safe_zone_ray.stages.extract import extract_batch
from safe_zone_ray.stages.langquality import LangQualityStage


def test_batch_scorer_matches_row_scorer():
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet").slice(0, 120)
    batch = extract_batch(pages_from_documents_batch(docs, variants=3))
    stage = LangQualityStage()
    out = stage(batch)

    scorer = QualityScorer()
    texts = out.column("text_extracted").to_pylist()
    for i, text in enumerate(texts):
        text = text or ""
        m = scorer.metrics(text, lower=text.lower())
        lang, score = detect_language(text, tokens=m.tokens)
        assert out.column("lang_id")[i].as_py() == lang, (i, text[:60])
        assert out.column("lang_score")[i].as_py() == pytest.approx(score, rel=1e-5, abs=1e-6)
        assert out.column("perplexity")[i].as_py() == pytest.approx(m.perplexity, rel=1e-5)
        q = out.column("quality")[i].as_py()
        assert q["n_words"] == m.n_words
        assert q["mean_word_len"] == pytest.approx(m.mean_word_len, rel=1e-5)
        assert q["symbol_word_ratio"] == pytest.approx(m.symbol_word_ratio, rel=1e-5, abs=1e-6)
        assert q["stopword_fraction"] == pytest.approx(m.stopword_fraction, rel=1e-5, abs=1e-6)
        assert q["dup_line_fraction"] == pytest.approx(m.dup_line_fraction, rel=1e-5, abs=1e-6)
        assert out.column("quality_drop_reason")[i].as_py() == scorer.quality_drop_reason(m)


def test_batch_scorer_unicode_rows():
    import pyarrow as pa

    rows = [
        "der hund ist nicht eine katze aber auch der vogel wird haben schön",
        "漢字が多い文章です。これは中国語のテキスト。",
        "the quick brown fox is on the hill and it was good",
        "",
        "   \n  ",
        "zxqv qqq kkk 12345",
        # vectorized-path torture (must NOT fall back, must match per-row):
        "hola ¿como estas amigo? el dia es muy bueno para todos",  # ¿ < U+00C0: no bonus gate
        "türkçe çok güzel bir gün ve daha sonra için kadar",  # diacritic bonus rows
        "le chat est sur la table et il était très bien fait",
        "también la niña pequeña está aquí con nosotros hoy",
        # fallback-path torture (RE2/Python \s divergence chars):
        "words with\x0bvertical\x0btab and the rest is english text here",
        "nbsp separated words are the thing we test here now",
    ]
    batch = pa.Table.from_arrays(
        [
            pa.array([f"u{i}" for i in range(len(rows))]),
            pa.array(rows),
        ],
        names=["url", "text_extracted"],
    )
    out = LangQualityStage()(batch)
    scorer = QualityScorer()
    for i, text in enumerate(rows):
        m = scorer.metrics(text, lower=text.lower())
        lang, score = detect_language(text, tokens=m.tokens)
        assert out.column("lang_id")[i].as_py() == lang, (i, text)
        assert out.column("lang_score")[i].as_py() == pytest.approx(score, rel=1e-5, abs=1e-6)


def test_empty_batch_through_all_stages():
    import pyarrow as pa

    from safe_zone_ray.stages.decide import decide_batch
    from safe_zone_ray.stages.detect import detect_scrub_batch
    from safe_zone_ray.stages.extract import extract_batch

    empty_pages = pa.Table.from_arrays(
        [
            pa.array([], pa.string()),
            pa.array([], pa.timestamp("us")),
            pa.array([], pa.binary()),
            pa.array([], pa.string()),
            pa.array([], pa.string()),
        ],
        names=["url", "warc_ts", "html", "text", "lang"],
    )
    out = decide_batch(detect_scrub_batch(LangQualityStage()(extract_batch(empty_pages))))
    assert out.num_rows == 0
    assert "keep" in out.schema.names


def test_batch_scorer_hypothesis_fuzz():
    """Property: the vectorized scorer equals the per-row reference scorer on
    random unicode text (words from several scripts, odd whitespace, symbols,
    CJK — rows that diverge under RE2 must route through the fallback)."""
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from safe_zone_ray.stages.langquality import LangQualityStage

    word = st.one_of(
        st.sampled_from(
            "the and was für über çok güzel le la être el niño 漢字 좋아 naïve".split()
        ),
        st.text(alphabet="abcdeé12#@$ ", min_size=1, max_size=8),
    )
    ws = st.sampled_from([" ", "\n", "\t", "\x0b", "\xa0", " ", "  "])
    doc = st.lists(st.tuples(word, ws), max_size=20).map(
        lambda ps: "".join(w + s for w, s in ps)
    )

    stage = LangQualityStage()
    scorer = QualityScorer()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(doc, min_size=1, max_size=6))
    def run(texts):
        batch = pa.Table.from_arrays(
            [pa.array([f"u{i}" for i in range(len(texts))]), pa.array(texts)],
            names=["url", "text_extracted"],
        )
        out = stage(batch)
        for i, text in enumerate(texts):
            m = scorer.metrics(text, lower=text.lower())
            lang, score = detect_language(text, tokens=m.tokens)
            assert out.column("lang_id")[i].as_py() == lang, (repr(text), lang)
            assert out.column("lang_score")[i].as_py() == pytest.approx(
                score, rel=1e-5, abs=1e-6
            )
            q = out.column("quality")[i].as_py()
            assert q["n_words"] == m.n_words, repr(text)
            assert q["stopword_fraction"] == pytest.approx(
                m.stopword_fraction, rel=1e-5, abs=1e-6
            )
            assert out.column("perplexity")[i].as_py() == pytest.approx(
                m.perplexity, rel=1e-4
            ), repr(text)
            assert out.column("quality_drop_reason")[i].as_py() == scorer.quality_drop_reason(m), repr(text)

    run()


# Whitespace torture rows for the perplexity normalisation.
WS_ROWS = [
    "a \t\n\f\r  b\t \tc\r\n\nd  e\n",  # mixed \t\n\f\r and space runs
    "one\rtwo three",  # a lone \r
    "one\ftwo three",  # a lone \f
    " \t\n leading and trailing runs \r\n ",
    " \t\n\f\r  ",  # only whitespace
    "",
    "x" * 1998 + " \t\n  tail",  # the 2000-codepoint slice ends inside a run
    "y" * 1999 + "é  after",  # the slice ends right after a 2-byte character
]


def _reference_normalise(lower):
    """The normalisation as it was first written: one replacement per
    whitespace run."""
    import pyarrow.compute as pc

    s = pc.utf8_slice_codeunits(lower, 0, 2000)
    return pc.utf8_trim_whitespace(pc.replace_substring_regex(s, r"\s+", " "))


def test_perplexity_whitespace_collapse_is_exact():
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    lm = QualityScorer().lm
    lower = pc.utf8_lower(pa.array(WS_ROWS, pa.string()))
    got, ref = lm.normalise_batch(lower), _reference_normalise(lower)
    assert pc.cast(got, pa.binary()).to_pylist() == pc.cast(ref, pa.binary()).to_pylist()
    assert WS_ROWS[6][1999:2001] == "\t\n"  # the slice does cut the run
    assert len(WS_ROWS[7][:2000].encode()) == 2001  # ... and keeps all of é
    batch = lm.perplexity_batch(lower)
    assert batch.dtype == np.float64
    assert (batch == lm.score_normalised(ref)).all()


def test_perplexity_whitespace_collapse_on_a_block(sf_dir):
    import glob
    import os

    import pyarrow.compute as pc

    from safe_zone_ray.pages import synthesize_pages_dir

    (f,) = glob.glob(os.path.join(synthesize_pages_dir(sf_dir), "*.parquet"))
    text = extract_batch(pq.read_table(f)).column("text_extracted").combine_chunks()
    lower = pc.utf8_lower(pc.fill_null(text, ""))
    lm = QualityScorer().lm
    assert lm.normalise_batch(lower).equals(_reference_normalise(lower))
    assert (lm.perplexity_batch(lower) == lm.score_normalised(_reference_normalise(lower))).all()


TOKEN_ROWS = [
    "nbsp\xa0between\xa0words and\x0bvertical\x0btabs",
    "don't rock_n_roll _lead trail_ o'clock ''",
    "abc123 4567def x9y 12.5 1,000",
    "café naïve été ́lone",  # combining marks
    "漢字が多い文章です。這是中文，한국어 텍스트",
    "?!... --- ((*)) ¿¡ «» …",  # punctuation only
    "",
    "  \t\n ",
]


def _reference_tokens(lower):
    import pyarrow.compute as pc

    toks = pc.split_pattern_regex(lower, r"[^\p{L}\p{N}_]+")
    flat = pc.list_flatten(toks)
    keep = pc.not_equal(flat, "")
    parent = pc.list_parent_indices(toks).filter(keep)
    return flat.filter(keep).to_pylist(), parent.to_pylist()


def test_tokenizer_matches_split_on_word_complement(sf_dir):
    import glob
    import os

    import pyarrow as pa
    import pyarrow.compute as pc

    from safe_zone_ray.pages import synthesize_pages_dir
    from safe_zone_ray.stages.langquality import tokenize

    (f,) = glob.glob(os.path.join(synthesize_pages_dir(sf_dir), "*.parquet"))
    block = extract_batch(pq.read_table(f)).column("text_extracted").combine_chunks()
    for rows in (pa.array(TOKEN_ROWS, pa.string()), pc.fill_null(block, "")):
        lower = pc.utf8_lower(rows)
        flat, parent = tokenize(lower)
        ref_flat, ref_parent = _reference_tokens(lower)
        assert flat.to_pylist() == ref_flat
        assert parent.tolist() == ref_parent
        assert len(ref_flat) > 0


def test_dup_line_fraction_matches_row_scorer():
    """Blank and whitespace-only lines are dropped, lines that differ only in
    surrounding whitespace are distinct, as in ``QualityScorer.metrics``."""
    import pyarrow as pa

    from safe_zone_ray.stages.langquality import _dup_line_fraction

    rows = [
        "a\nb\na\n\n  \nb",
        "same\nsame\nsame",
        "x \nx\n x\nx",
        "\r\nline\r\nline\r\n",
        "uno\fdos\nuno\fdos\n\t\n",
        "",
        "\n\n",
        "   ",
        "one line only",
    ]
    scorer = QualityScorer()
    got = _dup_line_fraction(pa.array(rows, pa.string()))
    assert got.tolist() == [scorer.metrics(t).dup_line_fraction for t in rows]
    assert got.max() > 0.5


# Every ASCII character (the byte table classes each one: word characters,
# the symbols, \x0b and \x1c-\x1f, \x7f and the other controls), plus a few
# non-ASCII letters, punctuation marks and spaces.
BYTE_PATH_ALPHABET = "".join(map(chr, range(0x80))) + "éÉüÜñßçøł¿¡«»—…\xa0 "


def _reference_columns(scorer, text):
    """Every langquality output column of one row, from the per-row
    reference scorer."""
    m = scorer.metrics(text, lower=text.lower())
    lang, score = detect_language(text, tokens=m.tokens)
    c = scorer.config
    failed = [
        m.n_words < c.min_words,
        m.n_words > c.max_words,
        not (c.min_mean_word_len <= m.mean_word_len <= c.max_mean_word_len),
        m.symbol_word_ratio > c.max_symbol_word_ratio,
        m.stopword_fraction < c.min_stopword_fraction,
        m.dup_line_fraction > c.max_dup_line_fraction,
        m.perplexity > c.max_perplexity,
    ]
    return {
        "lang_id": lang,
        "lang_score": score,
        "perplexity": m.perplexity,
        "quality": {
            "n_words": m.n_words,
            "mean_word_len": m.mean_word_len,
            "symbol_word_ratio": m.symbol_word_ratio,
            "stopword_fraction": m.stopword_fraction,
            "dup_line_fraction": m.dup_line_fraction,
        },
        "quality_drop_reason": scorer.quality_drop_reason(m),
        "quality_flags": sum(int(f) << k for k, f in enumerate(failed)),
    }


def test_byte_path_hypothesis_fuzz():
    """Property: on text over every ASCII character and a few non-ASCII
    ones, each output column of the stage equals the per-row reference, for
    ASCII rows (the byte table path) and the others alike."""
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    piece = st.one_of(
        st.sampled_from("The AND der Für le ÉTÉ el niño und was über".split()),
        st.text(alphabet=BYTE_PATH_ALPHABET, max_size=10),
    )
    doc = st.lists(piece, max_size=16).map(" ".join)
    stage = LangQualityStage()
    scorer = QualityScorer()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(doc, min_size=1, max_size=8))
    def run(texts):
        batch = pa.Table.from_arrays(
            [pa.array([f"u{i}" for i in range(len(texts))]), pa.array(texts)],
            names=["url", "text_extracted"],
        )
        out = stage(batch).drop_columns(["url", "text_extracted"]).to_pylist()
        for text, got in zip(texts, out):
            want = _reference_columns(scorer, text)
            got_q, want_q = got.pop("quality"), want.pop("quality")
            assert got_q == pytest.approx(want_q, rel=1e-5, abs=1e-6), repr(text)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-6), repr(text)

    run()
