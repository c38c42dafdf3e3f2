"""Flagship pipeline: read pages → extract → langid/quality → detect/scrub →
decide (SURVEY.md section 3.5).

The four stage kernels run in turn on each read block inside ONE
``map_batches(batch_size=None)`` call. ``read_pages`` reads one block per
input file and sets a block-size target on the plan's own context near the
real block size (see its docstring for the rule and the Ray estimate it
corrects), so the read, the chain and the write fuse into one operator whose
tasks, one per file, are all admitted at once. Any ``batch_size`` would make
Ray bundle read blocks up to that many rows per task, which idles cores on
inputs of a few blocks.

- extract: Arrow in/out; drops the wide ``html`` column immediately, so it
  never leaves the task (object-store memory rule);
- langquality: per-process cached model state in task mode; in actor-pool
  mode (``QualityChain``) the model is built once per actor;
- detect/scrub: process-cached compiled registry and a fused any-hit
  prefilter;
- decide: vectorized pyarrow.compute fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import pyarrow as pa
import ray.data

from safe_zone_ray.quality import QualityConfig
from safe_zone_ray.sources.pages_io import read_pages
from safe_zone_ray.stages.decide import decide_batch
from safe_zone_ray.stages.detect import detect_scrub_batch
from safe_zone_ray.stages.extract import extract_batch
from safe_zone_ray.stages.langquality import LangQualityStage


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "MASK"  # MASK | BLOCK | DETECT (reference PII_MODE semantics)
    context_scoring: bool = False  # deterministic C2 replacement (core/context.py)
    registry_path: str | None = None
    guardrails: tuple[str, ...] = ()
    allowed_langs: tuple[str, ...] = ("en",)
    quality: QualityConfig = field(default_factory=QualityConfig)
    # Actor pool vs stateless tasks for the langquality stage: the model
    # state here is cheap to build, so tasks + per-process cache scale better
    # (no pool spin-up/ramp); flip to True when holding a real heavyweight
    # model (fastText/KenLM files) — that is what actor pools are for.
    langquality_actor_pool: bool = False
    # When set (and pages are given as a directory), a KenLM-style word-bigram
    # LM is trained driver-side on this many sample rows and broadcast to the
    # scoring actors; decisions gain a ``word_perplexity`` column.
    word_lm_sample_rows: int | None = None
    # Path to a real fastText supervised model (e.g. lid.176.bin): loaded
    # once per actor by the pure-numpy reader (fasttext_bin.py) and used for
    # langid instead of the deterministic profile detector. Setting this
    # forces the actor-pool variant of the stage (heavyweight model state).
    fasttext_model_path: str | None = None

    def __post_init__(self):
        # reference semantics: mode must be one of MASK/BLOCK/DETECT
        # (main.go:67-97 rejects anything else with a 400)
        if self.mode not in ("MASK", "BLOCK", "DETECT"):
            raise ValueError(f"invalid mode {self.mode!r}: must be MASK, BLOCK or DETECT")

    def resolved_concurrency(self) -> int:
        try:
            import ray

            if ray.is_initialized():
                return max(2, int(ray.cluster_resources().get("CPU", 8)) - 1)
        except Exception:
            pass
        import os

        return max(2, (os.cpu_count() or 8) - 1)


def run_chain(batch: pa.Table, stages) -> pa.Table:
    """Run one block through each ``(kernel, kwargs)`` stage in turn."""
    for fn, kwargs in stages:
        batch = fn(batch, **kwargs)
    return batch


class QualityChain:
    """Actor-pool form of ``run_chain``: the langquality model state (a
    fastText file, a corpus-trained LM) is built once per actor, from the
    kwargs of the langquality slot of ``stages``, and takes that slot."""

    def __init__(self, stages, word_lm=None):
        lq = LangQualityStage(**stages[1][1], word_lm=word_lm)
        self.stages = (stages[0], (lq, {}), *stages[2:])

    def __call__(self, batch: pa.Table) -> pa.Table:
        return run_chain(batch, self.stages)


def quality_stages(cfg: PipelineConfig) -> tuple:
    """The ``(kernel, kwargs)`` stage tuple of the pipeline: extract,
    langquality, detect/scrub, decide. Kernels are looked up by name when
    this is called and shipped as values, so whatever the names are bound to
    now (e.g. a tracing wrapper) is what runs."""
    from safe_zone_ray.stages.langquality import langquality_batch

    return (
        (extract_batch, {}),
        (langquality_batch, {"config": cfg.quality, "model_path": cfg.fasttext_model_path}),
        (
            detect_scrub_batch,
            {
                "registry_path": cfg.registry_path,
                "mode": cfg.mode,
                "guardrails": cfg.guardrails,
                "context_scoring": cfg.context_scoring,
            },
        ),
        (decide_batch, {"allowed_langs": cfg.allowed_langs}),
    )


def build_quality_filter(
    pages: ray.data.Dataset | str,
    cfg: PipelineConfig | None = None,
) -> ray.data.Dataset:
    """Lazy Dataset of decisions rows; consume with write_parquet/iter_batches."""
    cfg = cfg or PipelineConfig()
    word_lm = None
    if cfg.word_lm_sample_rows and isinstance(pages, str):
        from safe_zone_ray.quality import train_word_lm_from_pages

        word_lm = train_word_lm_from_pages(pages, cfg.word_lm_sample_rows)
    if isinstance(pages, str):
        pages = read_pages(pages)

    stages = quality_stages(cfg)
    if cfg.langquality_actor_pool or word_lm is not None or cfg.fasttext_model_path:
        # the (possibly corpus-trained) LM is serialized once per actor, never
        # per batch; a fastText model file is read once per actor
        return pages.map_batches(
            QualityChain,
            fn_constructor_kwargs={"stages": stages, "word_lm": word_lm},
            batch_format="pyarrow",
            batch_size=None,
            # autoscaling actor pool: small jobs don't pay full pool
            # spin-up, large jobs grow to the cluster
            concurrency=(1, cfg.resolved_concurrency()),
        )
    return pages.map_batches(
        run_chain,
        fn_kwargs={"stages": stages},
        batch_format="pyarrow",
        batch_size=None,
    )


def per_host_stats(decisions: ray.data.Dataset, salt_buckets: int = 16) -> ray.data.Dataset:
    """Per-host keep/drop stats with a salted two-phase groupby to defuse
    domain skew (SURVEY.md A5/section 7.3): phase 1 pre-aggregates on
    (host, salt) inside map_batches — a pure Arrow combiner — phase 2 merges
    the tiny per-salt partials with a normal groupby on host."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        hosts = batch.column("host")
        # salt = vectorized url hash (functions/hashing poly hash over the
        # flat Arrow buffer — no per-row Python). Which bucket a url lands in
        # is irrelevant to the final stats (phase 2 merges across salts), so
        # any deterministic spreader works; it only needs to split hot hosts.
        from safe_zone_ray.functions.hashing import _poly_hash_segments

        urls = pc.cast(batch.column("url"), pa.binary())
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        n = len(urls)
        offs = np.frombuffer(urls.buffers()[1], dtype=np.int32)[
            urls.offset : urls.offset + n + 1
        ].astype(np.int64)
        data = np.frombuffer(urls.buffers()[2], dtype=np.uint8)
        salt_np = (_poly_hash_segments(data, offs) & np.uint64(salt_buckets - 1)).astype(
            np.int32
        )
        salt = pa.array(salt_np, pa.int32())
        kept = pc.cast(batch.column("keep"), pa.int64())
        t = pa.Table.from_arrays(
            [hosts, salt, kept, pa.array([1] * batch.num_rows, pa.int64())],
            names=["host", "salt", "kept", "total"],
        )
        return t.group_by(["host", "salt"]).aggregate([("kept", "sum"), ("total", "sum")]) \
            .rename_columns(["host", "salt", "kept", "total"])

    partials = decisions.map_batches(partial, batch_format="pyarrow")
    return (
        partials.groupby("host")
        .sum(["kept", "total"])
        .map_batches(
            lambda t: t.rename_columns(["host", "n_kept", "n_total"]),
            batch_format="pyarrow",
        )
    )


ABLATION_RULES = (
    "blocked_pii",
    "lang",
    "quality:too_few_words",
    "quality:too_many_words",
    "quality:mean_word_length",
    "quality:symbol_ratio",
    "quality:stopword_fraction",
    "quality:duplicate_lines",
    "quality:perplexity",
)


def _rule_flags(batch: pa.Table, allowed_langs: tuple[str, ...]):
    """(rows, len(ABLATION_RULES)) bool matrix: column r is set where rule r
    fires independently of the others (pii, language, then the 7
    ``quality_flags`` bits)."""
    import numpy as np

    qf = batch.column("quality_flags").to_numpy(zero_copy_only=False).astype(np.int64)
    lang = batch.column("lang_id").to_numpy(zero_copy_only=False)
    flags = np.zeros((batch.num_rows, len(ABLATION_RULES)), dtype=bool)
    flags[:, 0] = batch.column("pii_blocked").to_numpy(zero_copy_only=False).astype(bool)
    flags[:, 1] = ~np.isin(lang, np.array(allowed_langs, dtype=object))
    for k in range(7):
        flags[:, 2 + k] = (qf >> k) & 1
    return flags


def rule_ablation(decisions: "ray.data.Dataset", allowed_langs: tuple[str, ...] = ("en",)):
    """Per-rule drop attribution over the flagship decisions — the standard
    curation diagnostic (which filters bite, which are redundant):

    - ``n_flagged``: docs where the rule fires INDEPENDENTLY of the others
      (the quality bits come from the ``quality_flags`` bitmask the
      langquality stage computes on its float64 arrays, so borderline
      values can never diverge from the drop_reason chain);
    - ``n_unique_drops``: docs dropped by this rule ALONE — removing the
      rule would re-admit exactly these docs;
    - ``n_attributed``: docs whose ``drop_reason`` names the rule (the
      priority-first attribution the histogram reports).

    One projected streaming pass, 9 partial rows per batch, a 9-row
    groupby — nothing corpus-sized anywhere. ORACLE-CHECKED: the SQL twin
    re-derives the same bitmask from the recursive decisions chain."""
    import numpy as np
    import pyarrow as pa

    n_rules = len(ABLATION_RULES)

    def partial(batch: pa.Table) -> pa.Table:
        reason = batch.column("drop_reason").to_numpy(zero_copy_only=False)
        flags = _rule_flags(batch, allowed_langs)
        nf = flags.sum(axis=1)
        uniq = flags & (nf == 1)[:, None]
        n_attr = np.array([(reason == r).sum() for r in ABLATION_RULES], dtype=np.int64)
        return pa.table(
            {
                "rule_id": pa.array(np.arange(n_rules, dtype=np.int64)),
                "n_flagged": pa.array(flags.sum(axis=0).astype(np.int64)),
                "n_unique_drops": pa.array(uniq.sum(axis=0).astype(np.int64)),
                "n_attributed": pa.array(n_attr),
            }
        )

    rows = (
        decisions.select_columns(
            ["quality_flags", "pii_blocked", "lang_id", "drop_reason"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("rule_id")
        .sum(["n_flagged", "n_unique_drops", "n_attributed"])
        .take_all()
    )  # bounded: exactly 9 rows
    by_id = {int(r["rule_id"]): r for r in rows}
    import pyarrow as pa2

    return pa2.table(
        {
            "rule": pa2.array(list(ABLATION_RULES), pa2.string()),
            "n_flagged": pa2.array(
                [int(by_id[i]["sum(n_flagged)"]) if i in by_id else 0 for i in range(n_rules)],
                pa2.int64(),
            ),
            "n_unique_drops": pa2.array(
                [int(by_id[i]["sum(n_unique_drops)"]) if i in by_id else 0 for i in range(n_rules)],
                pa2.int64(),
            ),
            "n_attributed": pa2.array(
                [int(by_id[i]["sum(n_attributed)"]) if i in by_id else 0 for i in range(n_rules)],
                pa2.int64(),
            ),
        }
    )


def rule_overlap_matrix(
    decisions: "ray.data.Dataset", allowed_langs: tuple[str, ...] = ("en",)
):
    """Rule x rule co-occurrence counts over the flagship decisions — the
    companion view to ``rule_ablation`` (how redundant is each pair of
    filters): one row per ordered rule pair with the count of docs where
    BOTH fire independently (diagonal = n_flagged). Same projected
    streaming pass shape: each batch emits the 9x9 partial matrix (81
    rows), one bounded groupby folds them. ORACLE-CHECKED via the same
    quality_flags bitmask in the SQL chain."""
    import numpy as np
    import pyarrow as pa

    n_rules = len(ABLATION_RULES)

    def partial(batch: pa.Table) -> pa.Table:
        flags = _rule_flags(batch, allowed_langs).astype(np.int64)
        m = flags.T @ flags  # (9, 9) co-occurrence counts
        i, j = np.meshgrid(np.arange(n_rules), np.arange(n_rules), indexing="ij")
        return pa.table(
            {
                "i": pa.array(i.ravel()),
                "j": pa.array(j.ravel()),
                "n_both": pa.array(m.ravel()),
            }
        )

    rows = (
        decisions.select_columns(["quality_flags", "pii_blocked", "lang_id"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["i", "j"])
        .sum("n_both")
        .take_all()
    )  # bounded: exactly 81 rows
    by_ij = {(int(r["i"]), int(r["j"])): int(r["sum(n_both)"]) for r in rows}
    import pyarrow as pa2

    pairs = [(i, j) for i in range(n_rules) for j in range(n_rules)]
    return pa2.table(
        {
            "rule_a": pa2.array([ABLATION_RULES[i] for i, _ in pairs], pa2.string()),
            "rule_b": pa2.array([ABLATION_RULES[j] for _, j in pairs], pa2.string()),
            "n_both": pa2.array([by_ij.get(p, 0) for p in pairs], pa2.int64()),
        }
    )


def pii_position_histogram(decisions: "ray.data.Dataset"):
    """Where in documents PII lives: kept detections bucketed by relative
    character-offset decile (``min(9, 10*start // n_chars)``) per PII type —
    the span-locality diagnostic behind header/footer-aware scrub policies
    (contact blocks at the tail vs credentials leaking mid-body).

    Same streaming shape as ``pii_type_histogram``: a projected pass whose
    per-batch partial is bounded by ``|types| x 10`` rows, then one tiny
    groupby. ORACLE-CHECKED against the recursive decisions chain's ``kept``
    CTE joined back to the normalized text for the length denominator."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        n_chars = pc.utf8_length(batch.column("text_extracted")).to_pylist()
        counts: dict[tuple[str, int], int] = {}
        for dets, nc in zip(batch.column("detections").to_pylist(), n_chars):
            for d in dets or []:
                dec = min(9, (10 * d["start"]) // nc) if nc else 0
                counts[(d["type"], dec)] = counts.get((d["type"], dec), 0) + 1
        return pa.table(
            {
                "type": pa.array([k[0] for k in counts], pa.string()),
                "pos_decile": pa.array([k[1] for k in counts], pa.int64()),
                "n_detections": pa.array(list(counts.values()), pa.int64()),
            }
        )

    out = (
        decisions.select_columns(["text_extracted", "detections"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["type", "pos_decile"])
        .sum("n_detections")
    )
    return out.map_batches(
        lambda t: t.rename_columns(["type", "pos_decile", "n_detections"]),
        batch_format="pyarrow",
    )


def keep_rate_by_length_bucket(decisions: "ray.data.Dataset"):
    """Keep-rate calibration by document length: docs bucketed by the BIT
    LENGTH of their word count (log2 bins — 0 words → bucket 0, 1 → 1,
    2-3 → 2, 4-7 → 3, ...), each bucket reporting total docs, kept docs and
    an exact integer keep rate in parts-per-million. The standard curation
    sanity check that the filter chain is not silently beheading one end of
    the length distribution.

    Bit length is computed from the ``quality.n_words`` the langquality
    stage already emits (``np.frexp`` exponent — exact for int32 counts), so
    the pass is projected and shuffle-free up to a <=32-row groupby.
    ORACLE-CHECKED: the SQL twin uses ``length(bin(n_words))`` over the same
    chain's ``tokstats`` CTE — both sides pure integer arithmetic."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        nw = (
            pc.struct_field(batch.column("quality"), "n_words")
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        bucket = np.frexp(nw)[1].astype(np.int64)  # bit length; frexp(0) -> 0
        keep = batch.column("keep").to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table(
            {
                "length_bucket": pa.array(bucket),
                "n_docs": pa.array(np.ones(len(bucket), dtype=np.int64)),
                "n_kept": pa.array(keep),
            }
        )
        return (
            t.group_by("length_bucket")
            .aggregate([("n_docs", "sum"), ("n_kept", "sum")])
            .rename_columns(["length_bucket", "n_docs", "n_kept"])
        )

    rows = (
        decisions.select_columns(["quality", "keep"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("length_bucket")
        .sum(["n_docs", "n_kept"])
        .take_all()
    )  # bounded: at most 32 buckets (int32 word counts)
    import pyarrow as pa2

    rows.sort(key=lambda r: int(r["length_bucket"]))
    n_docs = [int(r["sum(n_docs)"]) for r in rows]
    n_kept = [int(r["sum(n_kept)"]) for r in rows]
    return pa2.table(
        {
            "length_bucket": pa2.array([int(r["length_bucket"]) for r in rows], pa2.int64()),
            "n_docs": pa2.array(n_docs, pa2.int64()),
            "n_kept": pa2.array(n_kept, pa2.int64()),
            "keep_rate_ppm": pa2.array(
                [(k * 1_000_000) // d for k, d in zip(n_kept, n_docs)], pa2.int64()
            ),
        }
    )


# largest count c whose pair count c*(c-1) fits int64 (~3.04e9)
_MAX_PAIR_COUNT = (1 + math.isqrt(1 + 4 * (2**63 - 1))) // 2


def _widen_lang_counts(t: pa.Table) -> pa.Table:
    """(host, lang_id, sum(c)) → (host, c, c2 = c*(c-1), one) for the
    host-keyed fold of ``host_lang_diversity``. Checks c before the product
    can wrap int64."""
    import numpy as np

    c = t.column("sum(c)").to_numpy(zero_copy_only=False).astype(np.int64)
    if len(c) and int(c.max()) > _MAX_PAIR_COUNT:
        raise OverflowError(
            "host_lang_diversity: a (host, lang) count exceeds the int64 "
            "pair-count range; shard the host key before the fold"
        )
    return pa.table(
        {
            "host": t.column("host"),
            "c": pa.array(c),
            "c2": pa.array(c * (c - 1)),
            "one": pa.array(np.ones(len(c), dtype=np.int64)),
        }
    )


def host_lang_diversity(decisions: "ray.data.Dataset"):
    """Per-host language diversity over the flagship decisions: document
    count, distinct language count, and an exact-integer Simpson collision
    index in parts-per-million (``sum(c*(c-1)) * 1e6 // (n*(n-1))`` — the
    probability two random docs from the host share a language; 1e6 =
    monolingual host). Flags machine-translated link farms (1 host, many
    languages) vs genuinely monolingual sources for mixture planning.

    Scale shape: per-batch Arrow hash group-by emits (host, lang) partial
    counts, one groupby folds them (bounded by hosts x langs), a second
    host-keyed groupby folds the <=|langs| rows per host; the final ppm
    arithmetic is vectorized int64 inside map_batches — the result stays a
    Dataset, nothing host-sized on the driver. ORACLE-CHECKED."""
    import pyarrow as pa

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"host": batch.column("host"), "lang_id": batch.column("lang_id")}
        )
        return (
            t.group_by(["host", "lang_id"])
            .aggregate([([], "count_all")])
            .rename_columns(["host", "lang_id", "c"])
        )

    per_lang = (
        decisions.select_columns(["host", "lang_id"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["host", "lang_id"])
        .sum("c")
    )

    folded = (
        per_lang.map_batches(_widen_lang_counts, batch_format="pyarrow")
        .groupby("host")
        .sum(["c", "c2", "one"])
    )

    def finish(t: pa.Table) -> pa.Table:
        import numpy as np

        n = t.column("sum(c)").to_numpy(zero_copy_only=False).astype(np.int64)
        c2 = t.column("sum(c2)").to_numpy(zero_copy_only=False).astype(np.int64)
        langs = t.column("sum(one)").to_numpy(zero_copy_only=False).astype(np.int64)
        denom = n * (n - 1)
        # c2 <= n*(n-1), so the ppm numerator wraps int64 once a single host
        # holds > ~3.04M docs; fail loudly (as the DuckDB twin would on
        # BIGINT overflow) instead of emitting wrapped garbage
        # (n <= _MAX_PAIR_COUNT also rules out a wrapped sum(c2) or denom)
        if len(c2) and (
            int(c2.max()) > (2**63 - 1) // 1_000_000 or int(n.max()) > _MAX_PAIR_COUNT
        ):
            raise OverflowError(
                "host_lang_diversity: per-host pair count exceeds the exact "
                "int64 ppm range; shard the host key before the fold"
            )
        ppm = np.where(denom > 0, (c2 * 1_000_000) // np.maximum(denom, 1), 0)
        return pa.table(
            {
                "host": t.column("host"),
                "n_docs": pa.array(n),
                "n_langs": pa.array(langs),
                "simpson_ppm": pa.array(ppm.astype(np.int64)),
            }
        )

    return folded.map_batches(finish, batch_format="pyarrow")


def keep_rate_by_crawl_day(decisions: "ray.data.Dataset"):
    """Keep-rate drift across crawl time: docs bucketed by the UTC day of
    their ``warc_ts`` (integer days since epoch — no timezone/float
    anywhere), each day reporting total docs, kept docs and the exact
    integer ppm keep rate. The crawl-health monitor a curation team runs
    per dump: a day whose keep rate collapses flags a bad crawl slice
    before it poisons the training mix.

    Projected streaming pass (warc_ts int64 + keep bool), per-batch Arrow
    group-by combiner, one day-count-bounded groupby; ppm arithmetic
    vectorized int64 inside map_batches — the result stays a Dataset.
    ORACLE-CHECKED: the SQL twin joins the chain's ``final`` back to the
    pages parquet and buckets with ``epoch_us // 86400000000``."""
    import numpy as np
    import pyarrow as pa

    def partial(batch: pa.Table) -> pa.Table:
        ts = (
            batch.column("warc_ts")
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        day = ts // 86_400_000_000
        keep = batch.column("keep").to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table(
            {
                "crawl_day": pa.array(day),
                "n_docs": pa.array(np.ones(len(day), dtype=np.int64)),
                "n_kept": pa.array(keep),
            }
        )
        return (
            t.group_by("crawl_day")
            .aggregate([("n_docs", "sum"), ("n_kept", "sum")])
            .rename_columns(["crawl_day", "n_docs", "n_kept"])
        )

    folded = (
        decisions.select_columns(["warc_ts", "keep"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("crawl_day")
        .sum(["n_docs", "n_kept"])
    )

    def finish(t: pa.Table) -> pa.Table:
        import numpy as np

        d = t.column("sum(n_docs)").to_numpy(zero_copy_only=False).astype(np.int64)
        k = t.column("sum(n_kept)").to_numpy(zero_copy_only=False).astype(np.int64)
        # loud failure beyond the exact int64 ppm range (> ~9.2e12 kept docs
        # in one day bucket), mirroring the DuckDB twin's overflow error
        if len(k) and int(k.max()) > (2**63 - 1) // 1_000_000:
            raise OverflowError(
                "keep_rate_by_crawl_day: day bucket exceeds the exact int64 "
                "ppm range"
            )
        return pa.table(
            {
                "crawl_day": t.column("crawl_day"),
                "n_docs": pa.array(d),
                "n_kept": pa.array(k),
                "keep_rate_ppm": pa.array((k * 1_000_000) // d),
            }
        )

    return folded.map_batches(finish, batch_format="pyarrow")


def pii_confidence_histogram(decisions: "ray.data.Dataset"):
    """Kept-detection confidence distribution per PII type, bucketed at
    centi-precision (``round(confidence * 100)`` — the registry confidences
    are 2-dp by construction, so the bucket is exact on both engines
    despite float32 storage). The audit view behind threshold tuning:
    which types sit near the block threshold, which are saturated.

    Same bounded-combiner shape as ``pii_type_histogram``.
    ORACLE-CHECKED against the chain's ``kept`` CTE confidences (the same
    ``round_confidence(compute_confidence(...))`` constants the kernel
    uses, re-emitted as SQL literals)."""
    import numpy as np
    import pyarrow as pa

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[tuple[str, int], int] = {}
        for dets in batch.column("detections").to_pylist():
            for d in dets or []:
                # floor(x*100 + 0.5): round-half-AWAY like DuckDB round(),
                # not np.rint's half-to-even — keeps parity even if a rule
                # pack ever ships a 3-dp confidence
                centi = int(np.floor(d["confidence"] * 100 + 0.5))
                counts[(d["type"], centi)] = counts.get((d["type"], centi), 0) + 1
        return pa.table(
            {
                "type": pa.array([k[0] for k in counts], pa.string()),
                "conf_centi": pa.array([k[1] for k in counts], pa.int64()),
                "n_detections": pa.array(list(counts.values()), pa.int64()),
            }
        )

    out = (
        decisions.select_columns(["detections"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["type", "conf_centi"])
        .sum("n_detections")
    )
    return out.map_batches(
        lambda t: t.rename_columns(["type", "conf_centi", "n_detections"]),
        batch_format="pyarrow",
    )
