"""Pure-numpy fastText .bin reader/predictor: format round-trip, prediction
math, and the LangQualityStage actor-pool integration (load once per actor,
score batches) — the real-model slot named by the north star."""

from __future__ import annotations

import os
import sys
import uuid

import numpy as np
import pytest
import ray

from safe_zone_ray.fasttext_bin import EOS, FastTextModel, ft_hash, load_model, write_model

# the kernel wrapper below runs in Ray workers, which cannot import this file
ray.cloudpickle.register_pickle_by_value(sys.modules[__name__])


def _toy_model(tmp_path, bucket=0, minn=0, maxn=0, word_ngrams=1):
    """Vocab of language-marker words; input rows are one-hot-ish vectors and
    the output matrix routes each marker to its language's label."""
    words = ["the", "and", "der", "und", "le", "la", EOS]
    labels = ["__label__en", "__label__de", "__label__fr"]
    dim = 3
    inp = np.zeros((len(words) + bucket, dim), dtype=np.float32)
    lang_of = {"the": 0, "and": 0, "der": 1, "und": 1, "le": 2, "la": 2}
    for i, w in enumerate(words):
        if w in lang_of:
            inp[i, lang_of[w]] = 4.0
    out = np.eye(3, dtype=np.float32) * 5.0
    path = str(tmp_path / "toy.bin")
    write_model(
        path, words, labels, inp, out,
        bucket=bucket, minn=minn, maxn=maxn, word_ngrams=word_ngrams,
    )
    return path, words, labels, inp, out


def test_round_trip_and_predict(tmp_path):
    path, words, labels, inp, out = _toy_model(tmp_path)
    m = load_model(path)
    assert m.words == words and m.labels == labels
    assert m.args["dim"] == 3 and m.args["bucket"] == 0
    np.testing.assert_array_equal(m.input, inp)

    lang, prob = m.predict("the cat and the dog")[0]
    assert lang == "en" and prob > 0.9
    assert m.predict("der hund und der mann")[0][0] == "de"
    assert m.predict("le chat la nuit")[0][0] == "fr"
    # top-k ordering
    top2 = m.predict("the and der", k=2)
    assert [lab for lab, _ in top2] == ["en", "de"]


def test_predict_matches_manual_softmax(tmp_path):
    path, words, labels, inp, out = _toy_model(tmp_path)
    m = load_model(path)
    text = "the der"
    ids = [words.index("the"), words.index("der"), words.index(EOS)]
    hidden = inp[ids].mean(axis=0)
    logits = out @ hidden
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    got = dict(m.predict(text, k=3))
    for i, lab in enumerate(["en", "de", "fr"]):
        assert got[lab] == pytest.approx(float(probs[i]), rel=1e-6)


def test_char_ngram_and_word_ngram_ids(tmp_path):
    path, words, labels, inp, out = _toy_model(tmp_path, bucket=100, minn=3, maxn=3, word_ngrams=2)
    m = load_model(path)
    # OOV word contributes only hashed char-ngram rows
    ids = m._line_ids("zzz")
    nw = len(words)
    ng = ["<zz", "zzz", "zz>"]
    expected_ngrams = [nw + ft_hash(g) % 100 for g in ng]
    for e in expected_ngrams:
        assert e in ids
    # word-bigram hash of (zzz, </s>) present
    h = (ft_hash("zzz") * 116049371 + ft_hash(EOS)) & 0xFFFFFFFFFFFFFFFF
    assert nw + h % 100 in ids
    # prediction still works (no crash on OOV-heavy input)
    assert isinstance(m.predict("zzz qqq"), list)


def test_bad_magic_rejected(tmp_path):
    path, *_ = _toy_model(tmp_path)
    raw = bytearray(open(path, "rb").read())
    raw[0] = 0
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="not a fastText model"):
        load_model(str(bad))


def test_langquality_stage_loads_model_once(tmp_path):
    import pyarrow as pa

    from safe_zone_ray.stages.langquality import LangQualityStage

    path, *_ = _toy_model(tmp_path)
    stage = LangQualityStage(model_path=path)
    assert stage.ft_model is not None
    batch = pa.table(
        {
            "url": ["u1", "u2"],
            "text_extracted": ["the cat and the dog sat", "der hund und der mann hier"],
        }
    )
    out = stage(batch)
    assert out.column("lang_id").to_pylist() == ["en", "de"]
    assert all(s > 0.5 for s in out.column("lang_score").to_pylist())
    # missing file → graceful fallback to the profile detector
    fallback = LangQualityStage(model_path=str(tmp_path / "absent.bin"))
    assert fallback.ft_model is None
    out2 = fallback(batch)
    assert out2.column("lang_id").to_pylist() == ["en", "de"]


def test_pipeline_with_fasttext_model(ray_session, tmp_path):
    """End-to-end: the actor-pool stage ships the model path, each actor
    loads the file in __init__, and decisions carry model-driven lang ids."""
    from safe_zone_ray.pages import synthesize_pages_dir
    from safe_zone_ray.pipelines.quality_filter import PipelineConfig, build_quality_filter

    path, *_ = _toy_model(tmp_path)
    pages = synthesize_pages_dir("/root/testdata/sf0.001")
    cfg = PipelineConfig(fasttext_model_path=path)
    ds = build_quality_filter(pages, cfg).select_columns(["url", "lang_id", "lang_score"])
    df = ds.limit(200).to_pandas()
    assert len(df) == 200
    assert set(df["lang_id"]) <= {"en", "de", "fr", "und"}


class StageLog:
    """Test-only langquality wrapper: after each call, logs the worker pid
    and a tag first set on the cached stage that scored the batch, so a
    stage built (and its model file loaded) twice in one process shows as
    two tags."""

    def __init__(self, fn, log: str):
        self.fn, self.log = fn, log

    def __call__(self, batch, **kwargs):
        from safe_zone_ray.stages import langquality as lq

        out = self.fn(batch, **kwargs)
        stage = lq._CACHED_STAGE
        if not hasattr(stage, "test_tag"):
            stage.test_tag = uuid.uuid4().hex
        with open(self.log, "a") as f:
            f.write(f"{os.getpid()} {stage.test_tag} {stage.ft_model is not None}\n")
        return out


def test_job_loads_fasttext_once_per_worker(ray_session, sf_dir, tmp_path, monkeypatch):
    """``run_job`` with a fastText model runs on its per-fragment tasks: over
    two invocations each worker process loads the model at most once, and
    the decisions equal the actor-pool flagship's."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    import safe_zone_ray.stages.langquality as lq
    from safe_zone_ray.pages import synthesize_pages_dir
    from safe_zone_ray.pipelines.quality_filter import PipelineConfig, build_quality_filter
    from safe_zone_ray.state.lineage import run_job

    path, *_ = _toy_model(tmp_path)
    # 500 docs x 4 variants / 125 rows per file -> 16 fragments, more than
    # the session has worker processes, so some process scores several
    pages = synthesize_pages_dir(
        sf_dir,
        out_dir="/tmp/szr_pages_fasttext",
        rows_per_file=125,
        force=True,
    )
    cfg = PipelineConfig(fasttext_model_path=path)
    log = str(tmp_path / "stages.log")
    out = str(tmp_path / "job")
    with monkeypatch.context() as m:
        m.setattr(lq, "langquality_batch", StageLog(lq.langquality_batch, log))
        n = len(glob.glob(f"{pages}/*.parquet"))
        assert run_job(pages, out, cfg, max_fragments=n // 2).fragments_processed == n // 2
        assert run_job(pages, out, cfg).fragments_processed == n - n // 2
    with open(log) as f:
        calls = [line.split() for line in f]
    assert len(calls) == n and all(loaded == "True" for _, _, loaded in calls)
    tags: dict[str, list] = {}
    for pid, tag, _ in calls:
        tags.setdefault(pid, []).append(tag)
    assert max(len(t) for t in tags.values()) > 1
    assert all(len(set(t)) == 1 for t in tags.values()), tags

    job = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(f"{out}/decisions/*/*.parquet"))]
    ).sort_by("url")
    flagship = pa.concat_tables(
        ray.get(build_quality_filter(pages, cfg).to_arrow_refs())
    ).sort_by("url")
    assert set(job.column("lang_id").to_pylist()) <= {"en", "de", "fr", "und"}
    assert job.equals(flagship)


def test_ft_hash_sign_extends_high_bytes():
    """fastText XORs uint32_t(int8_t(c)) — bytes >= 0x80 sign-extend. Vectors
    computed with an independent ctypes int8/uint32 reimplementation of
    Dictionary::hash (src/dictionary.cc); ASCII strings are unaffected."""
    assert ft_hash("hello") == 1335831723  # ASCII: plain FNV-1a 32
    assert ft_hash("</s>") == 3617362777
    assert ft_hash("é") == 1023043777
    assert ft_hash("日本語") == 308035559
    assert ft_hash("ñño") == 3349424934


def test_char_ngrams_include_full_token_exclude_lone_boundaries():
    """computeSubwords parity: the full '<word>' ngram IS emitted when its
    codepoint length ≤ maxn; lone '<' / '>' (n==1 at the boundaries) are not."""
    m = FastTextModel(
        args=dict(dim=4, ws=5, epoch=5, min_count=1, neg=5, word_ngrams=1,
                  loss=3, model=3, bucket=100, minn=1, maxn=4, lr_update_rate=100, t=1e-4),
        words=["ab"], labels=["__label__x"],
        input=np.zeros((101, 4), np.float32), output=np.zeros((1, 4), np.float32),
    )
    ids = m._char_ngram_ids("ab")  # w = '<ab>', len 4
    grams_expected = [
        "<a", "<ab", "<ab>",          # i=0: '<' alone excluded
        "a", "ab", "ab>",             # i=1
        "b", "b>",                    # i=2: 'b>' ok, lone at end? no — j<n
        # i=3: '>' alone excluded
    ]
    expected = [1 + ft_hash(g) % 100 for g in grams_expected]
    assert ids == expected
