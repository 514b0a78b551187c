"""Deterministic sampling — reproducible subsets for training-data curation.

``Dataset.random_shuffle`` / ``random_sample`` are non-deterministic across
runs; curation pipelines need samples that are stable under re-execution and
resumable runs. These use a Knuth multiplicative hash over an integer id
column — pure integer arithmetic, so the same rule is expressible exactly in
SQL (the DuckDB oracle) and any other engine:

    keep row  iff  (id * 2654435761) mod 2^32  <  fraction * 2^32

* ``hash_sample``       — global fraction.
* ``stratified_sample`` — per-stratum fraction dict (e.g. downsample one
  language harder than another); rows whose stratum is absent are dropped.

Both are single vectorized ``map_batches`` filters — no shuffle, no driver
state, trivially resumable.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from sqlgrep_ray.stages import exchange

_KNUTH = np.uint64(2654435761)
_MOD = np.uint64(1 << 32)


def _keep_mask(ids: np.ndarray, fraction: float) -> np.ndarray:
    h = (ids.astype(np.uint64) * _KNUTH) % _MOD
    return h < np.uint64(int(fraction * float(1 << 32)))


def hash_sample(
    ds: "ray.data.Dataset", id_col: str, fraction: float
) -> "ray.data.Dataset":
    """Deterministic ~``fraction`` sample keyed on ``id_col``."""

    def f(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(_keep_mask(ids, fraction)))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def grouped_sample(
    ds: "ray.data.Dataset",
    keys: "Sequence[str]",
    id_col: str,
    k: int,
) -> "ray.data.Dataset":
    """Deterministic k-per-group sample: the k rows with the smallest
    Knuth-hash of ``id_col`` within each group — a reproducible,
    engine-independent "give me k examples per stratum". Rides the
    combiner-first grouped top-k (``stages/topk.py``), so the shuffle
    carries at most k × groups_per_block rows per block; SQL-exact
    (row_number over the same integer hash)."""
    from sqlgrep_ray.stages.topk import grouped_topk

    def add_score(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        h = (ids.astype(np.uint64) * _KNUTH) % _MOD
        # grouped_topk takes the LARGEST scores: negate the hash
        return t.append_column("__hs", pa.array(-(h.astype(np.int64))))

    out = grouped_topk(
        ds.map_batches(add_score, batch_format="pyarrow", zero_copy_batch=True),
        keys=keys,
        score_col="__hs",
        tie_col=id_col,
        k=k,
    )
    return out.map_batches(
        lambda t: t.drop_columns(["__hs"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def mixture_sample(
    ds: "ray.data.Dataset",
    id_col: str,
    stratum_col: str,
    targets: Mapping[str, int],
) -> tuple["ray.data.Dataset", Mapping[str, float]]:
    """Corpus mixture construction: deterministically downsample each
    stratum toward a target ROW COUNT (the domain-reweighting step of
    recipes like DoReMi — "2 parts web, 1 part code" expressed as counts).

    Per-block stratum counts and one tiny merge (``exchange.merge``; output
    = strata cardinality, never the corpus) yield per-stratum rates
    ``min(1, target/n)``; the
    sample itself is the streaming :func:`stratified_sample` filter — the
    payload never shuffles. Rates are single float64 divisions, so the
    selection is expressible exactly in SQL (the driver oracle replays
    ``target/count(*)`` per stratum). Hash-sampling variance makes hit
    counts approximate (±O(√target)); strata absent from ``targets`` are
    dropped, targets ≥ the stratum size keep the whole stratum.

    Returns ``(sampled dataset, realized per-stratum rates)``.
    """
    def block_counts(t: pa.Table) -> pa.Table:
        return pa.TableGroupBy(t, [stratum_col]).aggregate([([], "count_all")])

    partials = ds.select_columns([stratum_col]).map_batches(
        block_counts, batch_format="pyarrow", zero_copy_batch=True
    )
    counted = exchange.to_table(
        exchange.merge(partials, [stratum_col], [("count_all", "sum")])
    )
    rates = {
        r[stratum_col]: min(1.0, targets[r[stratum_col]] / r["count_all"])
        for r in (counted.to_pylist() if counted is not None else [])
        if r[stratum_col] in targets and r["count_all"]
    }
    return stratified_sample(ds, id_col, stratum_col, rates), rates


def stratified_sample(
    ds: "ray.data.Dataset",
    id_col: str,
    stratum_col: str,
    fractions: Mapping[str, float],
) -> "ray.data.Dataset":
    """Per-stratum deterministic sampling (strata not listed are dropped)."""

    def f(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        col = t[stratum_col]
        keep = np.zeros(t.num_rows, dtype=bool)
        for s, frac in fractions.items():
            rows = pc.equal(col, s).to_numpy(zero_copy_only=False)
            rows = np.asarray(rows, dtype=bool)  # null ⇒ False
            if rows.any():
                keep[rows] = _keep_mask(ids[rows], frac)
        return t.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
