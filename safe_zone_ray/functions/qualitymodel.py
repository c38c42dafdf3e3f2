"""Hashed bag-of-words quality classifier — the CCNet/fastText-style model
the web-scale quality_filter practice trains to REPLACE hand rules.

The repo already has the 4-dense-feature logistic trainer
(``embed.train_quality_classifier`` — the iterative-algorithm *shape*). THIS
module is the production variant of that idea: a LEXICAL model over hashed
unigram buckets (plus two dense length features and a bias), trained by
full-batch gradient descent against a deterministic teacher rule, then scored
over every document with a train/valid/test hash-split evaluation — i.e. the
"train a cheap linear classifier on rule/curated labels, score the whole
crawl" recipe of CCNet (Wenzek et al. 2019), GPT-3 App. A and RefinedWeb.

The split is a TRUE holdout: gradients are computed over train-split docs
only (residuals of valid/test docs are masked to zero inside the batch
kernel and the step normalizes by the train count), so the per-split
``final`` accuracies in ``quality_model_report`` are genuine out-of-sample
measurements for valid/test.

Distributed shape (per iteration = ONE streamed pass, Ray-Data-native):

- weights broadcast once per iteration (``ray.put``, (N_BUCKETS+3) float64);
- each batch computes margins/probabilities locally and emits only SPARSE
  integer gradient partials: at most nnz ≤ N_BUCKETS+5 rows of
  (dim int64, g int64) per batch — never rows, never text;
- ``groupby("j").sum("g")`` reduces the partials (combiner-friendly int64
  sums), the driver folds ≤ N_BUCKETS+5 rows and takes the step.

Determinism (the driver contract): float partial sums across batches would
depend on batch layout, so every cross-batch quantity is an INTEGER:
per-token / per-doc gradient contributions are quantized to 1e-9 "nano"
units with half-away rounding (``rounding.round_half_away_int64_np``) before
summing — int64 sums are exact and order-independent. Within a document the
margin accumulates token contributions in TOKEN ORDER via
``np.add.reduceat`` (strictly sequential, unlike pairwise ``np.sum``), so
per-doc floats are identical across batch layouts too. Int64 headroom: each
doc contributes ≤ 1e9 nano-units per dim, so sums stay < 2^63 up to ~9e9
docs per dim; at 10^12 docs drop NANO to 1e6 (headroom note, not a code
branch — the teacher-rule trainer is meant to run on a stratified sample at
that scale anyway, see below).

Teacher rule (same quality-stats quantities as ``textstats.doc_quality_stats``):
``y = 1  iff  n_words >= 50  and  2 <= word_chars/n_words <= 12`` — a
"substantial prose" rule splitting the synthetic corpus ~57/43.

Scale path: 10 GD iterations = 10 corpus passes. At 10^12 docs, train on the
stable hash-stratified sample (compose with
``textstats.lang_stratified_sample`` — the gate is a pure doc_id hash, so
the training set is identical every epoch) and run only the final scoring
pass over the full corpus; the scoring pass is shuffle-free.

The ``queries()`` entries are rows-only (iterative refinement has no SQL
twin): correctness is pinned in
tests/test_qualitymodel.py by exact equality with an independent
single-process reference implementing the same spec, batch-layout
invariance, a planted linearly-separable corpus reaching 100% holdout
accuracy, and frozen golden hashes.

Reference parity: no reference counterpart (the Go service's quality
decisions are rule-only); beyond-reference training-pipeline operator.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from safe_zone_ray.functions.hashing import tokenize_hash_batch
from safe_zone_ray.functions.rounding import round_half_away_int64_np
from safe_zone_ray.functions.split import TRAIN_LT, VALID_LT, _buckets

N_BUCKETS = 1024  # hashed unigram dims 0..N_BUCKETS-1
_D_WORDS = N_BUCKETS  # dense: min(n_words, 5000)/1000
_D_MWL = N_BUCKETS + 1  # dense: mean word length / 10
_D_BIAS = N_BUCKETS + 2
DIM = N_BUCKETS + 3
ITERS = 12
LR = 20.0
_NANO = 1_000_000_000.0
# sentinel rows in the gradient exchange
_J_NDOCS = -1
_J_CORRECT = -2
_J_NTRAIN = -3

# memoized trained weights per (sf_dir, iters, blocks) — a driver run that
# executes both quality_model_scores and quality_model_report trains once,
# not twice (the cache holds DIM float64 + a tiny history list per key)
_TRAIN_CACHE: dict[tuple, tuple[np.ndarray, list[dict]]] = {}


def _doc_stats(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(n_words, mean_word_len) via the same Arrow kernels as
    ``doc_quality_stats`` (regex words, not whitespace tokens)."""
    text = pc.fill_null(batch.column("text"), "")
    n_words = pc.count_substring_regex(text, r"\w+").to_numpy(zero_copy_only=False)
    word_chars = (
        pc.utf8_length(pc.replace_substring_regex(text, r"\W", ""))
        .to_numpy(zero_copy_only=False)
        .astype(np.float64)
    )
    n_words = n_words.astype(np.float64)
    mean_wl = word_chars / np.maximum(n_words, 1.0)
    return n_words, mean_wl


def _labels(n_words: np.ndarray, mean_wl: np.ndarray) -> np.ndarray:
    return ((n_words >= 50) & (mean_wl >= 2) & (mean_wl <= 12)).astype(np.float64)


def _doc_features(batch: pa.Table):
    """Per-doc sparse+dense features, deterministic per doc (batch-layout
    independent). Returns (buckets per token, tok offsets, f_words, f_mwl,
    y)."""
    tok, off = tokenize_hash_batch(pc.fill_null(batch.column("text"), ""))
    buckets = (tok % np.uint64(N_BUCKETS)).astype(np.int64)
    n_words, mean_wl = _doc_stats(batch)
    # centered on the teacher-rule boundaries so the GD step is well-scaled
    f_words = (np.minimum(n_words, 5000.0) - 50.0) / 50.0
    f_mwl = (mean_wl - 7.0) / 5.0
    return buckets, off, f_words, f_mwl, _labels(n_words, mean_wl)


def _margins(
    w: np.ndarray,
    buckets: np.ndarray,
    off: np.ndarray,
    f_words: np.ndarray,
    f_mwl: np.ndarray,
) -> np.ndarray:
    """Margin per doc: bias + dense terms + token-order sequential sum of
    w[bucket]/n_tokens. ``np.add.reduceat`` is strictly sequential, so the
    accumulation order is the token order regardless of batch layout."""
    n = len(off) - 1
    counts = off[1:] - off[:-1]
    hashed = np.zeros(n, dtype=np.float64)
    if len(buckets):
        valid = counts > 0
        starts = off[:-1][valid]
        sums = np.add.reduceat(w[buckets], starts)
        hashed[valid] = sums / counts[valid]
    m = w[_D_BIAS] + w[_D_WORDS] * f_words
    m = m + w[_D_MWL] * f_mwl
    return m + hashed


def _read(sf_dir: str, override_num_blocks: int | None = None) -> ray.data.Dataset:
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        override_num_blocks=override_num_blocks,
    )


def train_quality_model(
    sf_dir: str,
    iters: int = ITERS,
    override_num_blocks: int | None = None,
) -> tuple[np.ndarray, list[dict]]:
    """Returns (weights float64[DIM], per-iteration history rows). History
    row i reports whole-corpus accuracy of the weights ENTERING iteration i
    (measured in the same pass that computes its gradient — no extra scan;
    evaluation only, so reading it over all splits leaks nothing). The
    GRADIENT uses train-split docs only: residuals of valid/test docs are
    zeroed (a doc_id-hash mask, no extra column reads) and the step divides
    by the train count, so valid/test stay genuine holdouts. Memoized per
    (sf_dir content fingerprint, iters, blocks) — the size+mtime stat
    guards against an in-place rewrite of documents.parquet silently
    returning weights trained on the old corpus."""
    import os

    st = os.stat(os.path.join(sf_dir, "documents.parquet"))
    key = (sf_dir, st.st_size, st.st_mtime_ns, iters, override_num_blocks)
    if key in _TRAIN_CACHE:
        w, history = _TRAIN_CACHE[key]
        return w.copy(), [dict(h) for h in history]
    w = np.zeros(DIM, dtype=np.float64)
    history: list[dict] = []

    for it in range(iters):
        w_ref = ray.put(w)

        def grad_partial(batch: pa.Table) -> pa.Table:
            w_local = ray.get(w_ref)
            buckets, off, f_words, f_mwl, y = _doc_features(batch)
            m = _margins(w_local, buckets, off, f_words, f_mwl)
            p = 1.0 / (1.0 + np.exp(-m))
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            in_train = _buckets(ids) < TRAIN_LT
            r = (p - y) * in_train  # residual per doc, holdout docs masked
            n_tok = off[1:] - off[:-1]
            g = np.zeros(DIM, dtype=np.int64)
            if len(buckets):
                parent = np.repeat(
                    np.arange(len(n_tok), dtype=np.int64), n_tok
                )
                per_tok = round_half_away_int64_np(
                    (r / np.maximum(n_tok, 1))[parent] * _NANO
                )
                np.add.at(g, buckets, per_tok)
            g[_D_WORDS] = round_half_away_int64_np(r * f_words * _NANO).sum()
            g[_D_MWL] = round_half_away_int64_np(r * f_mwl * _NANO).sum()
            g[_D_BIAS] = round_half_away_int64_np(r * _NANO).sum()
            nz = np.nonzero(g)[0]
            correct = int(((m > 0).astype(np.float64) == y).sum())
            dims = np.concatenate([nz, [_J_NDOCS, _J_CORRECT, _J_NTRAIN]])
            vals = np.concatenate([g[nz], [len(y), correct, int(in_train.sum())]])
            return pa.Table.from_arrays(
                [pa.array(dims, pa.int64()), pa.array(vals, pa.int64())],
                names=["j", "g"],
            )

        rows = (
            _read(sf_dir, override_num_blocks)
            .map_batches(grad_partial, batch_format="pyarrow")
            .groupby("j")
            .sum("g")
            .take_all()
        )  # bounded: <= DIM+3 rows
        g = np.zeros(DIM, dtype=np.int64)
        n_docs = n_correct = n_train = 0
        for rrow in rows:
            j, v = int(rrow["j"]), int(rrow["sum(g)"])
            if j == _J_NDOCS:
                n_docs = v
            elif j == _J_CORRECT:
                n_correct = v
            elif j == _J_NTRAIN:
                n_train = v
            else:
                g[j] = v
        history.append({"iteration": it, "n_docs": n_docs, "n_correct": n_correct})
        w = w - LR * (g.astype(np.float64) / _NANO) / max(n_train, 1)
    _TRAIN_CACHE[key] = (w.copy(), [dict(h) for h in history])
    return w, history


def quality_model_scores(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, split, label, pred, prob) — one shuffle-free scoring pass
    with the trained weights broadcast; split by the repo's deterministic
    80/10/10 doc_id hash bands; prob rounded to 6 dp AFTER the pred cut
    (pred is sign(margin), unaffected by rounding)."""
    w, _ = train_quality_model(sf_dir)
    w_ref = ray.put(w)

    def score(batch: pa.Table) -> pa.Table:
        w_local = ray.get(w_ref)
        buckets, off, f_words, f_mwl, y = _doc_features(batch)
        m = _margins(w_local, buckets, off, f_words, f_mwl)
        p = 1.0 / (1.0 + np.exp(-m))
        prob = np.floor(np.abs(p) * 1e6 + 0.5) / 1e6
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        b = _buckets(ids)
        split = np.where(b < TRAIN_LT, "train", np.where(b < VALID_LT, "valid", "test"))
        return pa.Table.from_arrays(
            [
                batch.column("doc_id"),
                pa.array(split.astype(object), pa.string()),
                pa.array(y.astype(np.int64)),
                pa.array((m > 0).astype(np.int64)),
                pa.array(prob),
            ],
            names=["doc_id", "split", "label", "pred", "prob"],
        )

    return _read(sf_dir).map_batches(score, batch_format="pyarrow")


def quality_model_report(sf_dir: str) -> pa.Table:
    """Training curve + final per-split evaluation, one flat table:
    (phase, iteration, split, n_docs, n_correct, accuracy 4dp). ``train_iter``
    rows measure the weights entering each GD iteration over the whole
    corpus (evaluation only); ``final`` rows evaluate the trained model per
    hash split — valid/test are true holdouts because the gradient masked
    them out (see ``train_quality_model``)."""
    w, history = train_quality_model(sf_dir)
    w_ref = ray.put(w)

    def eval_partial(batch: pa.Table) -> pa.Table:
        w_local = ray.get(w_ref)
        buckets, off, f_words, f_mwl, y = _doc_features(batch)
        m = _margins(w_local, buckets, off, f_words, f_mwl)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        b = _buckets(ids)
        split_id = np.where(b < TRAIN_LT, 0, np.where(b < VALID_LT, 1, 2))
        correct = ((m > 0).astype(np.float64) == y).astype(np.int64)
        n = np.bincount(split_id, minlength=3)
        c = np.bincount(split_id, weights=correct, minlength=3).astype(np.int64)
        return pa.Table.from_arrays(
            [
                pa.array(np.arange(3, dtype=np.int64)),
                pa.array(n.astype(np.int64)),
                pa.array(c),
            ],
            names=["split_id", "n", "correct"],
        )

    parts = (
        _read(sf_dir)
        .map_batches(eval_partial, batch_format="pyarrow")
        .groupby("split_id")
        .sum(["n", "correct"])
        .take_all()
    )  # bounded: 3 rows
    split_names = ["train", "valid", "test"]
    phase, iteration, split, n_docs, n_correct = [], [], [], [], []
    for h in history:
        phase.append("train_iter")
        iteration.append(h["iteration"])
        split.append("all")
        n_docs.append(h["n_docs"])
        n_correct.append(h["n_correct"])
    for rrow in sorted(parts, key=lambda r: int(r["split_id"])):
        phase.append("final")
        iteration.append(ITERS)
        split.append(split_names[int(rrow["split_id"])])
        n_docs.append(int(rrow["sum(n)"]))
        n_correct.append(int(rrow["sum(correct)"]))
    acc = [
        np.floor((c / n) * 1e4 + 0.5) / 1e4 if n else 0.0
        for c, n in zip(n_correct, n_docs)
    ]
    return pa.table(
        {
            "phase": pa.array(phase, pa.string()),
            "iteration": pa.array(iteration, pa.int64()),
            "split": pa.array(split, pa.string()),
            "n_docs": pa.array(n_docs, pa.int64()),
            "n_correct": pa.array(n_correct, pa.int64()),
            "accuracy": pa.array(acc, pa.float64()),
        }
    )
