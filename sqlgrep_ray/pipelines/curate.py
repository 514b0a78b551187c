"""Corpus curation pipeline — the training-data composition showcase.

Chains the engine's curation operators into the shape a real 100 TB text
pipeline runs, every stage streaming:

    read → text_stats (lang-ID, quality, fingerprint)
         → filter (language allowlist + quality floor + length window)
         → exact dedup on the content fingerprint (keep min doc_id)
         → [near-dup pair removal via MinHash-LSH]
         → write partitioned parquet (resumable layout)

Everything composes from existing stages; this module only wires them.

Keep-set application is size-aware: the exact-dedup survivor set (and the
near-dup loser set) are COUNTED first — small sets broadcast as an id array
(``ray.put`` once, vectorized ``is_in`` filter, no shuffle); sets above
``BROADCAST_IDS_MAX`` switch to a distributed semi-/anti-join on ``id_col``,
so the keep-set never has to exist as one in-memory list at 10^9 docs (the
round-1 unconditional ``to_pandas()`` keep-set was a driver OOM; the
unconditional join was a 4-second actor-pool tax on small corpora).
"""

from __future__ import annotations

from typing import Optional, Sequence

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from sqlgrep_ray.stages.dedup import exact_dedup, minhash_lsh_dedup
from sqlgrep_ray.stages.enrich import shuffle_join
from sqlgrep_ray.stages.textstats import text_stats

# id sets up to this size are broadcast (int64 → ≤16 MB in the object store,
# one copy per node) instead of hash-shuffle joined
BROADCAST_IDS_MAX = 2_000_000


def _collect_ids(ds: "ray.data.Dataset", id_col: str) -> pa.Array:
    tbls = list(ds.select_columns([id_col]).iter_batches(batch_format="pyarrow"))
    if not tbls:
        return pa.array([], pa.int64())
    return pa.concat_tables(tbls)[id_col].combine_chunks()


def _semi_filter(
    left: "ray.data.Dataset", ids: pa.Array, id_col: str, keep: bool
) -> "ray.data.Dataset":
    """Broadcast id-set membership filter (keep=True ⇒ semi, False ⇒ anti)."""
    import ray

    ids_ref = ray.put(ids)

    def f(t: pa.Table, ids_ref=None) -> pa.Table:
        vs = ray.get(ids_ref) if isinstance(ids_ref, ray.ObjectRef) else ids_ref
        mask = pc.is_in(t[id_col], value_set=vs)
        if not keep:
            mask = pc.invert(mask)
        return t.filter(mask)

    return left.map_batches(
        f, fn_kwargs=dict(ids_ref=ids_ref), batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _id_filter(
    left: "ray.data.Dataset",
    ids: "ray.data.Dataset",
    id_col: str,
    keep: bool,
) -> "ray.data.Dataset":
    """``left`` rows whose ``id_col`` does (``keep=True``, semi-join) or
    does not (anti-join) appear in ``ids``: a broadcast :func:`_semi_filter`
    up to ``BROADCAST_IDS_MAX`` ids, else ``enrich.shuffle_join``'s
    semi/anti, which runs the same ``is_in`` per key bucket — so both
    branches keep the same rows, NULL ids included."""
    if ids.count() <= BROADCAST_IDS_MAX:
        return _semi_filter(
            left, pc.unique(_collect_ids(ids, id_col)), id_col, keep
        )
    return shuffle_join(
        left, ids.select_columns([id_col]), on=[id_col],
        how="semi" if keep else "anti",
    )


def curate(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    languages: Optional[Sequence[str]] = ("en",),
    min_quality: float = 0.3,
    min_tokens: int = 5,
    drop_near_dups: bool = False,
    near_dup_threshold: float = 0.9,
    cluster_exact: bool = False,
) -> "ray.data.Dataset":
    """Filter + dedup a document corpus; returns surviving (id, text, stats).

    Exact dedup keys on the whitespace/case-normalized content fingerprint;
    the winner is the smallest id (deterministic). With ``drop_near_dups``,
    MinHash-LSH pairs above ``near_dup_threshold`` additionally remove the
    larger id of each pair (union-find-free policy: deterministic, may keep
    one member of a larger near-dup cluster per pair edge — e.g. the chain
    a—c—b with a < c < b keeps both a and c). ``cluster_exact=True``
    upgrades that to true connected components (``stages/cc.py``): exactly
    ONE survivor per near-dup cluster, at the cost of O(diameter)
    label-propagation rounds over the pair graph.

    ``languages=None`` skips the language filter (stats are still computed);
    with ``min_quality=0.0`` the surviving set is then SQL-expressible
    (token floor + normalized-content dedup), which the contract oracle
    exploits.
    """
    stats = text_stats(ds, text_col=text_col)
    langs = pa.array(list(languages)) if languages is not None else None

    def keep(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.greater_equal(t["quality_score"], min_quality),
            pc.greater_equal(t["n_tokens_ws"], min_tokens),
        )
        if langs is not None:
            mask = pc.and_(pc.is_in(t["lang_pred"], value_set=langs), mask)
        return t.filter(mask)

    filtered = stats.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    # consumed 2-3×(winners, optional pairs, final joins) — pin once; blocks
    # spill to the object store rather than re-running text_stats per consumer
    filtered = filtered.materialize()

    # exact dedup on content fingerprint → surviving ids; the winner set is
    # the output of an aggregation (one row per survivor, no fan-out)
    winners = exact_dedup(filtered, key="fingerprint", id_col=id_col).materialize()
    kept = _id_filter(filtered, winners, id_col, keep=True)

    if drop_near_dups:
        pairs = minhash_lsh_dedup(
            filtered, id_col=id_col, text_col=text_col, threshold=near_dup_threshold
        )
        if cluster_exact:
            from sqlgrep_ray.stages.cc import connected_components

            comp = connected_components(pairs)
            losers = comp.map_batches(
                lambda t: pa.table(
                    {id_col: t.filter(pc.not_equal(t["node"], t["component"]))["node"]}
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ).materialize()
        else:
            losers = pairs.map_batches(
                lambda t: pa.table({id_col: t["id_b"]}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ).materialize()
        kept = _id_filter(kept, losers, id_col, keep=False)

    return kept
