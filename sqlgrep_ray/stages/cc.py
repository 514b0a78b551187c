"""Distributed connected components — duplicate-pair clusters.

Near-dup detection emits PAIRS; correct deduplication needs CLUSTERS
(connected components of the pair graph): the local min-id-neighbor rule
("drop iff paired with a smaller id") over-keeps on chains — in the path
a—c—b with a < c < b, node c's only neighbor below it is b, so both a and
c survive even though they share a component. Label propagation fixes
that: every node converges to its component's MINIMUM id.

Ray-Data shape (the iterative-algorithm pattern, like ``cluster.kmeans``
but with a shuffle per round because state is per-NODE, not global):

* one round = hash-join labels onto the (undirected) edge list + one
  min-label merge per node (``exchange.merge``) — both sides are
  (int64, int64) columns;
* convergence via a monotone invariant: labels only ever decrease, so the
  global label SUM is strictly decreasing until fixpoint — one tiny
  aggregate per round instead of a full old-vs-new join;
* rounds needed = graph diameter (dup clusters are shallow; ``max_iter``
  guards pathological chains).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum

from sqlgrep_ray.stages import exchange

# Edge lists at or below this many (directed) rows collapse to one
# vectorized driver-side min-label pass (numpy minimum.at + pointer
# doubling): two int64 columns -> ~128 MB at the ceiling, converges in
# O(log diameter) passes with NO per-round Join/Aggregate all-to-all
# (each distributed round costs ~2 s of fixed shuffle overhead). Above it,
# the distributed label-propagation rounds run as before — the AUTO
# pattern shared with the aggregate/vocab/dedup merge paths.
CC_LOCAL_MAX = 8_000_000


def connected_components(
    edges: "ray.data.Dataset",
    src: str = "id_a",
    dst: str = "id_b",
    max_iter: int = 50,
) -> "ray.data.Dataset":
    """(node, component) for every node appearing in ``edges``; component =
    the minimum node id reachable from the node."""
    from sqlgrep_ray.stages.enrich import shuffle_join

    def _flat(c):
        return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c

    def undirect(t: pa.Table) -> pa.Table:
        a, b = _flat(t[src]), _flat(t[dst])
        return pa.table(
            {
                "n": pa.concat_arrays([a, b]),
                "m": pa.concat_arrays([b, a]),
            }
        )

    def fix_schema(t: pa.Table) -> pa.Table:
        # an exchange can emit EMPTY blocks with an empty schema; pin every
        # block to the (n, component) layout the final rename expects
        if t.num_rows == 0:
            return pa.table(
                {
                    "n": pa.array([], pa.int64()),
                    "component": pa.array([], pa.int64()),
                }
            )
        return t.select(["n", "component"])

    und = (
        edges.select_columns([src, dst])
        .map_batches(undirect, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()  # reused every round
    )
    if und.count() <= CC_LOCAL_MAX:
        tbls = list(und.iter_batches(batch_format="pyarrow"))
        if not tbls:
            return ray.data.from_arrow(
                pa.table(
                    {
                        "node": pa.array([], pa.int64()),
                        "component": pa.array([], pa.int64()),
                    }
                )
            )
        t = pa.concat_tables(tbls)
        n_arr = _flat(t["n"]).to_numpy(zero_copy_only=False)
        m_arr = _flat(t["m"]).to_numpy(zero_copy_only=False)
        nodes, inv = np.unique(np.concatenate([n_arr, m_arr]), return_inverse=True)
        half = len(n_arr)
        ui, vi = inv[:half], inv[half:]
        # min-label propagation with pointer doubling; ``nodes`` is sorted,
        # so the min dense index of a component IS its min node id — the
        # exact result the distributed rounds converge to
        comp = np.arange(len(nodes), dtype=np.int64)
        while True:
            before = comp.sum()
            np.minimum.at(comp, ui, comp[vi])
            comp = np.minimum(comp, comp[comp])
            if comp.sum() == before:
                break
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "component": pa.array(nodes[comp], pa.int64()),
                }
            )
        )
    def min_labels(ds: "ray.data.Dataset") -> "ray.data.Dataset":
        merged = exchange.merge(ds, ["n"], [("component", "min")])
        return exchange.as_dataset(exchange.apply(merged, fix_schema)).materialize()

    labels = min_labels(
        und.map_batches(
            lambda t: pa.table({"n": t["n"], "component": t["n"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )
    prev_sum = None
    converged = False
    for _ in range(max_iter):
        neigh = shuffle_join(und, labels, ["n"]).map_batches(
            lambda t: pa.table({"n": t["m"], "component": t["component"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        merged = min_labels(labels.union(neigh))
        s = merged.aggregate(Sum("component", alias_name="s", ignore_nulls=True))["s"]
        labels = merged
        if prev_sum is not None and s == prev_sum:
            converged = True
            break  # labels only decrease: equal sum == fixpoint
        prev_sum = s
    if not converged:
        # a component with diameter > max_iter still carries >1 label;
        # downstream cluster-exact dedup would keep >1 survivor per cluster
        import warnings

        warnings.warn(
            f"connected_components: label propagation did not converge in "
            f"{max_iter} iterations (component diameter exceeds max_iter); "
            f"labels are an upper bound, raise max_iter",
            RuntimeWarning,
            stacklevel=2,
        )
    return labels.map_batches(
        lambda t: t.rename_columns(["node", "component"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def cluster_dedup_keep(
    pairs: "ray.data.Dataset",
    src: str = "id_a",
    dst: str = "id_b",
) -> "ray.data.Dataset":
    """One surviving id per duplicate cluster: the component minimum.
    (Nodes not in any pair are untouched by definition — anti-join the
    corpus against the dropped set, as ``curate`` does.)"""
    comp = connected_components(pairs, src=src, dst=dst)
    return comp.map_batches(
        lambda t: t.filter(pc.equal(t["node"], t["component"])).select(["node"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
