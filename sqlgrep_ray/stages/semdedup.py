"""SemDeDup — semantic deduplication via k-means buckets + in-cluster cosine.

The Abbas et al. 2023 recipe (SemDeDup): cluster the corpus embeddings with
k-means, then compare pairs ONLY within a cluster — the clustering turns an
O(n²) all-pairs problem into k independent O((n/k)²) problems, each small
enough for one worker's matmul. This is the semantic companion to the
lexical near-dup family (``stages/dedup.py``); no reference analogue.

Ray-Data composition, no new primitives:

1. ``stages/cluster.kmeans`` — centroids broadcast per iteration, partial
   sums, no shuffle;
2. ONE ``groupby(cluster_id)`` shuffle moves (id, embedding, cluster_id);
3. ``map_groups``: normalized matmul per cluster → pairs ≥ ``threshold``.

Partitioning assumption (document per the custom-operator rule): a single
cluster's rows fit one worker — choose ``k`` ≈ corpus_size / desired
cluster size (SemDeDup uses ~10k-row clusters at web scale). Skewed
clusters are the operator's known failure mode; raise ``k`` or pre-split
hot clusters upstream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from sqlgrep_ray.stages.cluster import kmeans
from sqlgrep_ray.stages.similarity import _normalize


def semdedup_pairs(
    ds: "ray.data.Dataset",
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 16,
    threshold: float = 0.95,
    n_iter: int = 8,
) -> "ray.data.Dataset":
    """(id_a, id_b, cluster_id, cosine) for same-cluster pairs with cosine
    ≥ ``threshold`` (id_a < id_b). Pairs that straddle clusters are NOT
    examined — that is SemDeDup's documented recall trade-off."""
    labeled, _ = kmeans(ds, vec_col=vec_col, id_col=id_col, k=k, n_iter=n_iter)

    def cluster_pairs(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "cluster_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
        n = g.num_rows
        if n < 2:
            return empty
        ids = g[id_col].to_numpy(zero_copy_only=False)
        x = _normalize(
            np.stack(
                g[vec_col].combine_chunks().to_numpy(zero_copy_only=False)
            ).astype(np.float64)
        )
        sim = x @ x.T
        ai, bi = np.triu_indices(n, k=1)
        hit = sim[ai, bi] >= threshold
        ai, bi = ai[hit], bi[hit]
        a, b = ids[ai], ids[bi]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        cid = int(g["cluster_id"][0].as_py())
        return pa.table(
            {
                "id_a": pa.array(lo),
                "id_b": pa.array(hi),
                "cluster_id": pa.array(np.full(len(lo), cid, dtype=np.int64)),
                "cosine": pa.array(sim[ai, bi]),
            }
        )

    return (
        labeled.select_columns([id_col, vec_col, "cluster_id"])
        .groupby("cluster_id")
        .map_groups(cluster_pairs, batch_format="pyarrow")
    )


def semdedup(
    ds: "ray.data.Dataset",
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 16,
    threshold: float = 0.95,
    n_iter: int = 8,
) -> "ray.data.Dataset":
    """Surviving rows after semantic dedup: a row is dropped iff it pairs
    (cosine ≥ threshold, same cluster) with a SMALLER id — the min-id
    winner rule shared with ``dedup.exact_dedup``. Loser removal is
    size-aware (``curate._id_filter``): small loser sets broadcast as an
    id array, large ones run a key-bucketed anti-join that carries the
    vector column as it is."""
    pairs = semdedup_pairs(
        ds, vec_col=vec_col, id_col=id_col, k=k, threshold=threshold, n_iter=n_iter
    )
    losers = pairs.select_columns(["id_b"]).map_batches(
        lambda t: t.rename_columns([id_col]).group_by([id_col]).aggregate([]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    from sqlgrep_ray.pipelines.curate import _id_filter

    return _id_filter(ds, losers, id_col, keep=False)
