"""Language-ID heuristic and quality-scorer unit tests."""

import pytest

from safe_zone_ray.langid import detect_language
from safe_zone_ray.quality import CharBigramLM, QualityConfig, QualityScorer


@pytest.mark.parametrize(
    "text,lang",
    [
        ("the quick brown fox is on the hill and it was good", "en"),
        ("der hund ist nicht eine katze aber auch der vogel wird haben", "de"),
        ("le chat est dans la maison avec les enfants pour une fête", "fr"),
        ("el perro está en la casa con los niños para una fiesta", "es"),
        ("bu bir deneme ve çok güzel bir gün ama yarın daha iyi olacak", "tr"),
        ("漢字が多い文章です。これは日本語または中国語のテキスト。", "zh"),
    ],
)
def test_detect_language(text, lang):
    got, score = detect_language(text)
    assert got == lang
    assert score > 0.2


def test_no_signal():
    assert detect_language("") == ("und", 0.0)
    assert detect_language("zxqv qqq kkk 12345")[0] == "und"


def test_deterministic():
    t = "the cat sat on the mat and the dog was there"
    assert detect_language(t) == detect_language(t)


def test_perplexity_ordering():
    lm = CharBigramLM()
    good = lm.perplexity("the committee will meet on monday to discuss the plan.")
    soup = lm.perplexity("#$%^ @@!! 9182 #$%^ @@!! zzzz qqqq ####")
    assert good < soup
    assert lm.perplexity("") > 0  # degenerate input doesn't crash


def test_quality_rules_fire_in_order():
    qs = QualityScorer(QualityConfig())
    assert qs.quality_drop_reason(qs.metrics("too short")) == "quality:too_few_words"
    soup = qs.metrics("#$%1 " * 40)
    assert qs.quality_drop_reason(soup) in ("quality:symbol_ratio", "quality:mean_word_length",
                                            "quality:stopword_fraction")
    assert qs.quality_drop_reason(qs.metrics("#$% " * 40)) == "quality:too_few_words"
    good = qs.metrics(
        "The quick brown fox jumps over the lazy dog while the morning sun rises."
    )
    assert qs.quality_drop_reason(good) == ""


def test_duplicate_lines_metric():
    qs = QualityScorer()
    m = qs.metrics("\n".join(["the same line is here"] * 10))
    assert m.dup_line_fraction == pytest.approx(0.9)
    m2 = qs.metrics("one the line\ntwo the line\nthree the line")
    assert m2.dup_line_fraction == 0.0


def test_metrics_fields():
    qs = QualityScorer()
    m = qs.metrics("The cat. The hat!\n- bullet item\nmore text ...")
    assert m.n_words == 8
    assert m.bullet_line_fraction > 0
    assert m.ellipsis_line_fraction > 0
    assert 0 < m.stopword_fraction < 1


def test_word_bigram_lm():
    from safe_zone_ray.quality import WordBigramLM

    lm = WordBigramLM(
        ["the cat sat on the mat", "the dog sat on the rug", "the cat and the dog"]
    )
    seen = lm.perplexity("the cat sat on the mat")
    backoff = lm.perplexity("the mat sat")       # known words, unseen bigrams
    unknown = lm.perplexity("zzz qqq vvv")       # OOV everywhere
    assert seen < backoff < unknown
    assert lm.perplexity("") > backoff  # degenerate input scores poorly
    # deterministic
    assert WordBigramLM(["a b c"]).perplexity("a b") == WordBigramLM(["a b c"]).perplexity("a b")


def test_word_lm_pipeline_column(ray_session):
    from safe_zone_ray.pages import synthesize_pages_dir
    from safe_zone_ray.pipelines.quality_filter import PipelineConfig, build_quality_filter

    pages = synthesize_pages_dir("/root/testdata/sf0.001")
    cfg = PipelineConfig(word_lm_sample_rows=200)
    ds = build_quality_filter(pages, cfg)
    rows = ds.select_columns(["word_perplexity", "lang_id"]).take(50)
    assert all(r["word_perplexity"] > 0 for r in rows)
