"""Poisson bootstrap: statistical sanity + weight-distribution checks on
top of the SQL-twin parity the oracle sweep enforces."""

import numpy as np

from safe_zone_ray.functions.bootstrap import (
    HASH_M,
    POISSON_THRESHOLDS,
    _weights,
    bootstrap_mean_chars,
)

SF = "/root/testdata/sf0.001"


def test_thresholds_are_poisson1_cdf():
    import math

    acc = 0.0
    for k, t in enumerate(POISSON_THRESHOLDS):
        acc += math.exp(-1.0) / math.factorial(k)
        assert abs(t / HASH_M - min(acc, 1.0)) < 1e-9
    assert list(POISSON_THRESHOLDS) == sorted(POISSON_THRESHOLDS)


def test_weights_distribution_close_to_poisson1():
    """Over many (doc, replicate) cells the empirical weight distribution
    must track Poisson(1): mean ~= 1, var ~= 1, P(0) ~= 1/e."""
    ids = np.arange(20_000, dtype=np.int64)
    w = np.concatenate([_weights(ids, b) for b in range(4)])
    assert abs(w.mean() - 1.0) < 0.02
    assert abs(w.var() - 1.0) < 0.05
    assert abs((w == 0).mean() - np.exp(-1)) < 0.02


def test_bootstrap_replicates_bracket_true_mean(ray_session):
    """The replicate spread must bracket the true corpus mean and scale
    like a standard error (all replicates within a few SE of truth)."""
    import pyarrow.parquet as pq

    t = bootstrap_mean_chars(SF).to_pandas()
    assert len(t) == 32
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["n_chars"])
    chars = docs.column("n_chars").to_numpy()
    true_mean = chars.mean()
    est = t.mean_chars_micro / 1e6
    # replicates scatter around truth: mean of replicates close, spread sane
    se = chars.std() / np.sqrt(len(chars))
    assert abs(est.mean() - true_mean) < 3 * se
    assert (abs(est - true_mean) < 6 * se).all()
    assert est.std() > 0, "replicates must actually vary"
    # n_eff hovers around the corpus size (Poisson(1) mass conservation)
    assert abs(t.n_eff.mean() - len(chars)) < 4 * np.sqrt(len(chars))


def test_bootstrap_keep_rate_brackets_true_rate(ray_session):
    """Flagship keep-rate CI: replicates scatter around the true keep rate
    at binomial standard-error scale."""
    from safe_zone_ray.functions.bootstrap import bootstrap_keep_rate
    from safe_zone_ray.pages import synthesize_pages_dir
    from safe_zone_ray.pipelines.quality_filter import (
        PipelineConfig,
        build_quality_filter,
    )

    t = bootstrap_keep_rate(SF).to_pandas()
    assert len(t) == 32
    dec = build_quality_filter(synthesize_pages_dir(SF), PipelineConfig())
    keeps = [
        int(b.column("keep").to_numpy(zero_copy_only=False).sum())
        for b in dec.select_columns(["keep"]).iter_batches(batch_format="pyarrow")
    ]
    n = 2000
    true_rate = sum(keeps) / n
    se = np.sqrt(true_rate * (1 - true_rate) / n)
    est = t.keep_rate_ppm / 1e6
    assert abs(est.mean() - true_rate) < 3 * se
    assert (abs(est - true_rate) < 6 * se).all()
    assert est.std() > 0


def test_bootstrap_median_brackets_true_median(ray_session):
    """Median CI: replicates scatter around the true corpus median; the
    spread is positive (the nonlinear case the bootstrap exists for)."""
    import pyarrow.parquet as pq

    from safe_zone_ray.functions.bootstrap import bootstrap_median_chars

    t = bootstrap_median_chars(SF).to_pandas()
    assert len(t) == 32
    chars = np.sort(
        pq.read_table(f"{SF}/documents.parquet", columns=["n_chars"])
        .column("n_chars")
        .to_numpy()
    )
    true_med = chars[(len(chars) - 1) // 2]
    # replicate medians live inside the central quantile band of the data
    lo, hi = chars[int(0.40 * len(chars))], chars[int(0.60 * len(chars))]
    assert ((t.median_chars >= lo) & (t.median_chars <= hi)).all()
    assert abs(np.median(t.median_chars) - true_med) <= (hi - lo)
    assert t.median_chars.std() > 0


def test_keep_rate_key_rejects_url_without_doc_variant_suffix():
    """A url without the trailing /<doc_id>/<variant> digits has no key; it
    must fail with a message naming the url, not a numpy cast error."""
    import pyarrow as pa
    import pytest

    from safe_zone_ray.functions.bootstrap import _page_keys

    urls = pa.chunked_array([["http://a.example/3/1"], ["http://b.example/about", None]])
    with pytest.raises(ValueError, match="b.example/about"):
        _page_keys(urls)
    with pytest.raises(ValueError, match="None"):
        _page_keys(pa.chunked_array([["http://a.example/3/1", None]]))


def test_keep_rate_key_rejects_variant_that_would_collide():
    """key = doc_id*8 + variant is unique only for variant < 8: /3/8 and
    /4/0 would share key 32."""
    import pyarrow as pa
    import pytest

    from safe_zone_ray.functions.bootstrap import _page_keys

    ok = _page_keys(pa.chunked_array([["http://a.example/3/7", "http://a.example/4/0"]]))
    assert ok.tolist() == [31, 32]
    with pytest.raises(ValueError, match="variant >= 8"):
        _page_keys(pa.chunked_array([["http://a.example/4/0"], ["http://a.example/3/8"]]))
