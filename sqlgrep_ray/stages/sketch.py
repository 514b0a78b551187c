"""Mergeable sketches: HyperLogLog distinct counts, Misra-Gries heavy
hitters, KLL quantiles.

HyperLogLog approximate COUNT(DISTINCT) — mergeable fixed-size sketch.

The scale path for distinct counting: the exact paths
(``aggregate.py`` holistic set, ``skew.salted_count_distinct``) shuffle
every distinct value at least once; a HyperLogLog register array is
2^p bytes REGARDLESS of cardinality, so at 100 TB the whole reduction
moves kilobytes. Standard estimator (Flajolet et al. 2007) with the
small-range linear-counting correction; expected relative error ≈
1.04/√(2^p) (~0.8% at the default p=14).

Ray-Data shape — combiner-first, no driver state:

1. per-block combine: vectorized 64-bit hash (fixed-key siphash via
   ``pandas.util.hash_pandas_object`` — deterministic across worker
   processes) → register index = top ``p`` bits, rank = leading-zero count
   of the rest + 1 → per-block register array by ``np.maximum.at``;
2. merge: element-wise register max, two-level (each merge batch folds ≤
   ``merge_batch`` partial rows, then one final fold) so no single task
   ever holds more than ``merge_batch`` × 2^p bytes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from sqlgrep_ray.stages import exchange
from sqlgrep_ray.stages.textnorm import split_whitespace

_ALPHA = {4: 0.673, 5: 0.697, 6: 0.709}


def _alpha(m: int) -> float:
    return _ALPHA.get(int(np.log2(m)), 0.7213 / (1 + 1.079 / m))


def _hash64(arr: pa.Array) -> np.ndarray:
    s = pd.Series(arr.to_pandas())
    return pd.util.hash_pandas_object(s, index=False).to_numpy()  # uint64


def _rank_of(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rank) per 64-bit hash: index = top p bits, rank =
    leading-zero count of the rest + 1 (bit_length via frexp exponent —
    exact while 64-p ≤ 52, i.e. p ≥ 12)."""
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    w = h & np.uint64((1 << (64 - p)) - 1)
    _, exp = np.frexp(w.astype(np.float64))
    rank = np.where(w == 0, 64 - p + 1, 64 - p - exp + 1).astype(np.uint8)
    return idx, rank


def _regs_from_hashes(h: np.ndarray, p: int) -> np.ndarray:
    regs = np.zeros(1 << p, dtype=np.uint8)
    if len(h):
        idx, rank = _rank_of(h, p)
        np.maximum.at(regs, idx, rank)
    return regs


def _estimate(regs: np.ndarray, p: int) -> int:
    m = 1 << p
    est = _alpha(m) * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)  # linear counting, small range
    return int(round(est))


def approx_count_distinct(
    ds: "ray.data.Dataset",
    col: str,
    p: int = 14,
    merge_batch: int = 256,
) -> int:
    """Approximate number of distinct non-null values of ``col``.

    Two-mode sketch in the HLL++ shape (Heule et al. 2013): below
    ``2^p/4`` distinct hashes the partial stays SPARSE (the sorted
    distinct 64-bit hashes themselves, ≤ 2×2^p bytes) and the answer is
    EXACT (barring a 64-bit hash collision — negligible and
    deterministic); on overflow the sparse set converts losslessly to the
    dense register array and the standard estimator (± 1.04/√2^p) takes
    over. Merges stay bounded either way: a partial is never larger than
    2×2^p bytes."""
    if not 12 <= p <= 18:
        raise ValueError("p must be in [12, 18] (frexp rank path)")
    m = 1 << p
    sparse_max = m // 4

    def block(t: pa.Table) -> pa.Table:
        c = t[col]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        h = np.unique(_hash64(c.drop_null()))
        if len(h) <= sparse_max:
            flag, payload = 0, h.tobytes()
        else:
            flag, payload = 1, _regs_from_hashes(h, p).tobytes()
        return pa.table(
            {"flag": pa.array([flag], pa.int8()),
             "payload": pa.array([payload], pa.binary())}
        )

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            # empty block (e.g. repartition of an empty dataset): the
            # empty sparse set is the identity element
            return pa.table(
                {"flag": pa.array([0], pa.int8()),
                 "payload": pa.array([b""], pa.binary())}
            )
        flags = t["flag"].to_pylist()
        pls = t["payload"].to_pylist()
        sparse = [np.frombuffer(b, np.uint64) for b, f in zip(pls, flags) if f == 0]
        dense = [np.frombuffer(b, np.uint8) for b, f in zip(pls, flags) if f == 1]
        if not dense:
            u = (
                np.unique(np.concatenate(sparse))
                if sparse
                else np.empty(0, np.uint64)
            )
            if len(u) <= sparse_max:
                return pa.table(
                    {"flag": pa.array([0], pa.int8()),
                     "payload": pa.array([u.tobytes()], pa.binary())}
                )
            dense = [_regs_from_hashes(u, p)]
            sparse = []
        regs = np.zeros(m, dtype=np.uint8)
        for d in dense:
            np.maximum(regs, d, out=regs)
        for s in sparse:
            np.maximum(regs, _regs_from_hashes(s, p), out=regs)
        return pa.table(
            {"flag": pa.array([1], pa.int8()),
             "payload": pa.array([regs.tobytes()], pa.binary())}
        )

    partials = exchange.one_block(
        ds.select_columns([col])
        .map_batches(block, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(merge, batch_format="pyarrow", batch_size=merge_batch),
        merge,
    )
    rows = partials.take_all()
    if not rows:  # zero input blocks: nothing ever ran
        return 0
    if rows[0]["flag"] == 0:
        return len(rows[0]["payload"]) // 8  # sparse: exact distinct count
    return _estimate(np.frombuffer(rows[0]["payload"], dtype=np.uint8), p)


def hll_error_bound(p: int) -> float:
    """Expected relative standard error of the estimate at precision p."""
    return 1.04 / np.sqrt(1 << p)


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters — mergeable frequent-items summary
# ---------------------------------------------------------------------------


def _mg_compress(t: pa.Table, k: int) -> pa.Table:
    """Keep ≤ k counters; subtract the (k+1)-th largest count from the
    survivors (the Misra-Gries decrement — mergeable summaries, Agarwal
    et al. 2012). Counts become LOWER bounds, undercounting each item by
    at most N/(k+1) in total across all compressions."""
    if t.num_rows <= k:
        return t
    counts = t["count"].to_numpy(zero_copy_only=False)
    order = np.argsort(-counts, kind="stable")
    thresh = counts[order[k]]
    keep_idx = order[:k]
    new_counts = counts[keep_idx] - thresh
    pos = new_counts > 0
    return pa.table(
        {
            "item": t["item"].take(pa.array(keep_idx[pos])),
            "count": pa.array(new_counts[pos]),
        }
    )


def heavy_hitters(
    ds: "ray.data.Dataset",
    col: str,
    k: int = 256,
    merge_rows: int = 65536,
) -> "ray.data.Dataset":
    """Approximate top frequent values of ``col``: every item with true
    frequency > N/(k+1) is guaranteed present; reported counts are lower
    bounds within N/(k+1) of truth. The summary is ≤ k rows per block and
    the merge is two-level — nothing proportional to the distinct-value
    count ever shuffles (the exact path, ``vocab.token_frequencies``,
    moves the whole vocabulary)."""

    def block(t: pa.Table) -> pa.Table:
        c = t[col]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        vc = pc.value_counts(c.drop_null())
        local = pa.table({"item": vc.field("values"), "count": vc.field("counts")})
        return _mg_compress(local, k)

    def merge(t: pa.Table) -> pa.Table:
        summed = pa.TableGroupBy(t, "item").aggregate([("count", "sum")])
        summed = summed.rename_columns(["item", "count"])
        return _mg_compress(summed, k)

    def final(t: pa.Table) -> pa.Table:
        t = merge(t)
        order = [("count", "descending"), ("item", "ascending")]
        return t.take(pc.sort_indices(t, order))

    return exchange.one_block(
        ds.select_columns([col])
        .map_batches(block, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(merge, batch_format="pyarrow", batch_size=merge_rows),
        final,
    )


def _mg_compress_grouped(
    t: pa.Table, key: str, k: int
) -> pa.Table:
    """Vectorized per-key Misra-Gries compression of a summed
    (key, item, count) table: within each key keep ≤ k counters,
    subtracting that key's (k+1)-th largest count from its survivors.
    One sort + one gather for EVERY key at once — no Python per key."""
    from sqlgrep_ray.stages.window import _key_change_mask

    n = t.num_rows
    if n == 0:
        return t
    order = pc.sort_indices(
        t, [(key, "ascending"), ("count", "descending")]
    )
    t = t.take(order)
    karr = t[key].combine_chunks()
    counts = t["count"].to_numpy(zero_copy_only=False)
    pos = np.arange(n, dtype=np.int64)
    change = _key_change_mask(karr, n)
    first = np.maximum.accumulate(np.where(change, pos, 0))
    rank = pos - first  # 0-based rank within key, largest count first
    starts = np.flatnonzero(change)
    lens = np.diff(np.r_[starts, n])
    # per-key threshold: count at rank k, or 0 when the key has ≤ k items
    over = lens > k
    thresh_per_key = np.zeros(len(starts), dtype=counts.dtype)
    thresh_per_key[over] = counts[starts[over] + k]
    thresh = np.repeat(thresh_per_key, lens)
    new_counts = counts - thresh
    keep = (rank < k) & (new_counts > 0)
    return pa.table(
        {
            key: karr.filter(pa.array(keep)),
            "item": t["item"].combine_chunks().filter(pa.array(keep)),
            "count": pa.array(new_counts[keep]),
        }
    )


def grouped_heavy_hitters(
    ds: "ray.data.Dataset",
    key: str,
    col: str,
    k: int = 64,
    num_buckets: "int | None" = None,
    merge_rows: int = 65536,
) -> "ray.data.Dataset":
    """Per-key approximate top frequent values — the grouped form of
    :func:`heavy_hitters` (completing the grouped-sketch family beside
    grouped HLL and grouped KLL). Within each key, every item with true
    frequency > N_key/(k+1) is guaranteed present and counts are lower
    bounds within N_key/(k+1). State per key is ≤ k (item, count) rows at
    every stage: per-block value_counts → vectorized per-key MG
    compression → size-capped combines → ONE key-hash bucket exchange →
    final per-key sum + compression. When a key's distinct items never
    exceed ``k`` nothing is ever decremented, so counts are EXACT (the
    driver-oracle regime). Output rows: (key, item, count)."""
    from sqlgrep_ray.stages.window import resolve_buckets

    num_buckets = resolve_buckets(num_buckets, ds)

    def _sum_counts(t: pa.Table) -> pa.Table:
        summed = pa.TableGroupBy(t, [key, "item"]).aggregate([("count", "sum")])
        return summed.rename_columns([key, "item", "count"])

    def block(t: pa.Table) -> pa.Table:
        t = t.select([key, col])
        t = t.filter(pc.is_valid(t[col]))
        grouped = pa.TableGroupBy(t, [key, col]).aggregate([([], "count_all")])
        grouped = grouped.rename_columns([key, "item", "count"])
        return _mg_compress_grouped(grouped, key, k)

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return _mg_compress_grouped(_sum_counts(t), key, k)

    def bucket_final(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__b"])
        if g.num_rows == 0:
            return g
        return _mg_compress_grouped(_sum_counts(g), key, k)

    combined = ds.map_batches(
        block, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(combine, batch_format="pyarrow", batch_size=merge_rows)
    return exchange.bucketed(combined, key, num_buckets, bucket_final)


def grouped_approx_distinct(
    ds: "ray.data.Dataset",
    key: str,
    col: str,
    p: int = 12,
    out_col: str = "approx_distinct",
) -> "ray.data.Dataset":
    """Per-group approximate COUNT(DISTINCT col) with an EXACT sparse
    regime (HLL++ shape, Heule et al. 2013): each block emits, per key,
    either the sorted distinct 64-bit hashes (SPARSE, while ≤ 2^p/8
    entries so the payload never exceeds the m-byte dense row) or an HLL
    register array (DENSE). The merge counts a key exactly when every
    block stayed sparse for it — which covers the common per-key
    low-cardinality case (and makes the result hash-checkable against
    ``count(DISTINCT col)`` there, barring a 64-bit hash collision) —
    and falls back to the ±1.04/√2^p estimator the moment any block
    overflowed. Exchange volume per (block, key) is ≤ 2^p bytes either
    way, independent of value cardinality. Merge pass is vectorized for
    the sparse keys (one lexsort over all (key, hash) pairs) and for the
    dense register matrix (``maximum.reduceat``); only MIXED keys (sparse
    rows meeting dense rows) pay a short Python loop — by construction a
    small minority."""
    if not 12 <= p <= 18:
        raise ValueError("p must be in [12, 18] (frexp rank path)")
    m = 1 << p
    sparse_max = m // 8  # 8-byte hashes: sparse payload ≤ m bytes

    def block(t: pa.Table) -> pa.Table:
        t = t.select([key, col])
        mask = pc.and_kleene(
            pc.is_valid(t[key]), pc.is_valid(t[col])
        )
        t = t.filter(pc.fill_null(mask, False))
        if t.num_rows == 0:
            return pa.table(
                {key: pa.array([], t.schema.field(key).type),
                 "flag": pa.array([], pa.int8()),
                 "payload": pa.array([], pa.binary())}
            )
        karr = t[key]
        if isinstance(karr, pa.ChunkedArray):
            karr = karr.combine_chunks()
        dic = karr.dictionary_encode()
        gidx = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = dic.dictionary
        h = _hash64(t[col].combine_chunks() if isinstance(t[col], pa.ChunkedArray) else t[col])
        # distinct (group, hash) pairs, grouped: one lexsort + dedup mask
        order = np.lexsort((h, gidx))
        gs, hs = gidx[order], h[order]
        keep = np.r_[True, (gs[1:] != gs[:-1]) | (hs[1:] != hs[:-1])]
        gs, hs = gs[keep], hs[keep]
        seg_starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        seg_ends = np.r_[seg_starts[1:], len(gs)]
        flags = np.empty(len(seg_starts), np.int8)
        payloads = []
        for i, (s, e) in enumerate(zip(seg_starts, seg_ends)):
            if e - s <= sparse_max:
                flags[i] = 0
                payloads.append(hs[s:e].tobytes())
            else:
                flags[i] = 1
                payloads.append(_regs_from_hashes(hs[s:e], p).tobytes())
        return pa.table(
            {
                key: uniq.take(pa.array(gs[seg_starts])),
                "flag": pa.array(flags),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    def merge_bucket(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__b"])
        n = g.num_rows
        if n == 0:
            return pa.table(
                {
                    key: g[key][:0].combine_chunks(),
                    out_col: pa.array([], pa.int64()),
                }
            )
        order = pc.sort_indices(g, [(key, "ascending")])
        g = g.take(order)
        karr = g[key].combine_chunks()
        same = pc.fill_null(
            pc.equal(karr.slice(1), karr.slice(0, n - 1)), False
        ) if n > 1 else pa.array([], pa.bool_())
        key_change = np.r_[
            True, ~same.to_numpy(zero_copy_only=False).astype(bool)
        ]
        starts = np.flatnonzero(key_change)
        ends = np.r_[starts[1:], n]
        n_keys = len(starts)
        flags = g["flag"].to_numpy(zero_copy_only=False).astype(np.int8)
        payloads = g["payload"].to_pylist()
        seg_of_row = np.cumsum(key_change) - 1
        seg_has_dense = np.zeros(n_keys, bool)
        np.logical_or.at(seg_has_dense, seg_of_row, flags == 1)
        counts = np.zeros(n_keys, np.int64)
        # EXACT path: keys whose every row is sparse — one lexsort over
        # all their (key, hash) pairs, unique count per key
        sparse_rows = np.flatnonzero((flags == 0) & ~seg_has_dense[seg_of_row])
        if len(sparse_rows):
            row_lens = np.array(
                [len(payloads[r]) // 8 for r in sparse_rows], np.int64
            )
            kidx = np.repeat(seg_of_row[sparse_rows], row_lens)
            allh = np.frombuffer(
                b"".join(payloads[r] for r in sparse_rows), np.uint64
            )
            o2 = np.lexsort((allh, kidx))
            ks, hs2 = kidx[o2], allh[o2]
            uniq_mask = np.r_[True, (ks[1:] != ks[:-1]) | (hs2[1:] != hs2[:-1])]
            np.add.at(counts, ks[uniq_mask], 1)
        # ESTIMATOR path: keys with ≥1 dense row — register max across
        # their dense rows plus lossless conversion of any sparse rows
        for s_i in np.flatnonzero(seg_has_dense):
            regs = np.zeros(m, dtype=np.uint8)
            for r in range(starts[s_i], ends[s_i]):
                if flags[r] == 1:
                    np.maximum(
                        regs, np.frombuffer(payloads[r], np.uint8), out=regs
                    )
                else:
                    np.maximum(
                        regs,
                        _regs_from_hashes(
                            np.frombuffer(payloads[r], np.uint64), p
                        ),
                        out=regs,
                    )
            counts[s_i] = _estimate(regs, p)
        return pa.table(
            {
                key: karr.take(pa.array(starts)),
                out_col: pa.array(counts),
            }
        )


    return exchange.bucketed(
        ds.map_batches(block, batch_format="pyarrow", zero_copy_batch=True),
        key, 64, merge_bucket,
    )


# ---------------------------------------------------------------------------
# KLL quantile sketch — mergeable approximate percentiles
# ---------------------------------------------------------------------------


def _kll_cap(k: int, level: int, top: int) -> int:
    """Compactor capacity: k at the top level, decaying by 2/3 per level
    below (Karnin-Lang-Liberty 2016). Floor of 8 keeps tiny levels sane."""
    return max(8, int(np.ceil(k * (2.0 / 3.0) ** (top - level))))


def _kll_compact(values: np.ndarray, levels: np.ndarray, k: int):
    """Compaction cascade: any over-capacity level is sorted and every
    other item is promoted one level up (weight doubles); the remainder is
    dropped. An odd-length buffer retains its largest item at the level so
    total weight is always preserved exactly. Parity of the kept lane is
    derived deterministically from (buffer length, level) — reproducible
    for a fixed merge order; approximation guarantees are empirical-grade
    (tested), not adversarial-grade (the classic analysis randomizes the
    parity coin)."""
    while True:
        top = int(levels.max()) if len(levels) else 0
        done = True
        for lvl in range(top + 1):
            sel = levels == lvl
            n_l = int(np.count_nonzero(sel))
            if n_l <= _kll_cap(k, lvl, top):
                continue
            done = False
            buf = np.sort(values[sel])
            keep_values = [values[~sel]]
            keep_levels = [levels[~sel]]
            if n_l % 2 == 1:
                keep_values.append(buf[-1:])
                keep_levels.append(np.array([lvl], dtype=np.int8))
                buf = buf[:-1]
            parity = (len(buf) ^ lvl) & 1
            promoted = buf[parity::2]
            keep_values.append(promoted)
            keep_levels.append(np.full(len(promoted), lvl + 1, dtype=np.int8))
            values = np.concatenate(keep_values)
            levels = np.concatenate(keep_levels).astype(np.int8)
            break  # re-derive top before compacting further
        if done:
            return values, levels


def approx_quantiles(
    ds: "ray.data.Dataset",
    col: str,
    qs=(0.5, 0.9, 0.99),
    k: int = 2048,
    merge_rows: int = 65536,
) -> list[float]:
    """Approximate quantiles of ``col`` via a mergeable KLL sketch.

    The scale path for percentiles: the exact path
    (``stages/quantile.distributed_percentile``) needs a sample pass plus a
    bracket-collect pass over the data; a KLL sketch is one streaming pass
    and O(k) state — at 100 TB the whole reduction moves a few thousand
    (value, level) pairs per block. Rank error is O(1/k) of N in practice
    (pytest pins < 2/k on uniform and zipf data).

    Below ``k`` total values no compaction ever fires, so the sketch is
    EXACT and reproduces the engine's truncation-index percentile
    (0-based ``floor(q*N)``, the reference's PERCENTILE contract) — the
    driver oracle runs in that regime; accuracy beyond it is pinned by
    pytest. Weight bookkeeping is exact (sum of 2^level == N always).

    Returns one float per entry of ``qs``; NaN-free input assumed, NULLs
    dropped, empty input → empty list.
    """

    def block(t: pa.Table) -> pa.Table:
        c = t[col]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        v = c.drop_null().cast(pa.float64()).to_numpy(zero_copy_only=False)
        lv = np.zeros(len(v), dtype=np.int8)
        v, lv = _kll_compact(v, lv, k)
        return pa.table({"value": pa.array(v), "level": pa.array(lv)})

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "value": pa.array([], pa.float64()),
                    "level": pa.array([], pa.int8()),
                }
            )
        v = t["value"].to_numpy(zero_copy_only=False)
        lv = t["level"].to_numpy(zero_copy_only=False).astype(np.int8)
        v, lv = _kll_compact(v, lv, k)
        return pa.table({"value": pa.array(v), "level": pa.array(lv)})

    final = exchange.one_block(
        ds.select_columns([col])
        .map_batches(block, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(merge, batch_format="pyarrow", batch_size=merge_rows),
        merge,
    ).take_all()
    if not final:
        return []
    values = np.array([r["value"] for r in final])
    weights = np.exp2([r["level"] for r in final]).astype(np.int64)
    if len(values) == 0:
        return []
    order = np.argsort(values, kind="stable")
    values, weights = values[order], weights[order]
    cumw = np.cumsum(weights)
    n = int(cumw[-1])
    out = []
    for q in qs:
        t_pos = min(int(np.floor(q * n)), n - 1)
        idx = min(int(np.searchsorted(cumw, t_pos, side="right")), len(values) - 1)
        out.append(float(values[idx]))
    return out


def _kll_compact_per_key(
    keys: np.ndarray, v: np.ndarray, lv: np.ndarray, k: int
):
    """Compact only the keys holding more than ``k`` retained values
    (keys must be sorted; values stay grouped by key). Small keys pass
    through untouched — the common case costs one bincount."""
    if len(keys) == 0:
        return keys, v, lv
    change = np.r_[True, keys[1:] != keys[:-1]]
    seg_id = np.cumsum(change) - 1
    counts = np.bincount(seg_id)
    if (counts <= k).all():
        return keys, v, lv
    starts = np.r_[0, np.cumsum(counts)[:-1]]
    out_k, out_v, out_l = [], [], []
    small = np.repeat(counts <= k, counts)
    out_k.append(keys[small])
    out_v.append(v[small])
    out_l.append(lv[small])
    for s in np.flatnonzero(counts > k):
        sl = slice(starts[s], starts[s] + counts[s])
        cv, cl = _kll_compact(v[sl].copy(), lv[sl].copy(), k)
        out_k.append(np.repeat(keys[starts[s]], len(cv)))
        out_v.append(cv)
        out_l.append(cl)
    return (
        np.concatenate(out_k),
        np.concatenate(out_v),
        np.concatenate(out_l).astype(np.int8),
    )


def grouped_approx_quantiles(
    ds: "ray.data.Dataset",
    key: str,
    value_col: str,
    qs=(0.5, 0.9, 0.99),
    k: int = 512,
    num_buckets: "int | None" = None,
    merge_rows: int = 65536,
) -> "ray.data.Dataset":
    """Per-key approximate quantiles via mergeable KLL partials — the
    SCALE twin of ``quantile.grouped_percentile``: the exact path holds
    every value of a key in one bucket task, this one bounds a key's
    state at O(k·log) retained (value, level) pairs however many rows it
    has. One narrow (key, value, level) stream, per-key compaction only
    where a key exceeds ``k`` in a block/batch (the common key passes
    through untouched), ONE key-hash bucket exchange, then a fully
    vectorized weighted-quantile gather per bucket (no Python call per
    key).

    Below ``k`` values per key nothing ever compacts, so the answer is
    EXACT and reproduces the truncation-index rule (0-based
    ``floor(q*N)`` — the reference PERCENTILE contract); the driver
    oracle runs in that regime. NULL values drop per key; NULL keys form
    one group. Output: one row per key, columns ``(key, q<percent>…)``."""
    from sqlgrep_ray.stages.window import _key_change_mask, resolve_buckets

    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantiles must be in [0, 1]")
    num_buckets = resolve_buckets(num_buckets, ds)
    out_names = [f"q{int(round(q * 100)):02d}" for q in qs]

    def _compact_table(t: pa.Table, with_level: bool) -> pa.Table:
        karr = t[key].combine_chunks()
        order = pc.sort_indices(pa.table({"k": karr}), [("k", "ascending")])
        onp = order.to_numpy(zero_copy_only=False)
        keys_np = karr.take(order).to_numpy(zero_copy_only=False)
        v = (
            t[value_col].combine_chunks().take(order)
            .to_numpy(zero_copy_only=False).astype(np.float64)
        )
        if with_level:
            lv = (
                t["level"].combine_chunks().take(order)
                .to_numpy(zero_copy_only=False).astype(np.int8)
            )
        else:
            lv = np.zeros(len(v), dtype=np.int8)
        keys_np, v, lv = _kll_compact_per_key(keys_np, v, lv, k)
        return pa.table(
            {
                key: pa.array(keys_np, karr.type),
                value_col: pa.array(v),
                "level": pa.array(lv),
            }
        )

    def block(t: pa.Table) -> pa.Table:
        t = t.select([key, value_col]).filter(pc.is_valid(t[value_col]))
        return _compact_table(t, with_level=False)

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return _compact_table(t, with_level=True)

    def bucket_q(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__b"])
        n = g.num_rows
        karr0 = g[key].combine_chunks()
        if n == 0:
            cols = {key: karr0[:0]}
            for name in out_names:
                cols[name] = pa.array([], pa.float64())
            return pa.table(cols)
        order = pc.sort_indices(
            g, [(key, "ascending"), (value_col, "ascending")]
        )
        g = g.take(order)
        karr = g[key].combine_chunks()
        v = g[value_col].to_numpy(zero_copy_only=False)
        w = np.exp2(
            g["level"].to_numpy(zero_copy_only=False).astype(np.int64)
        ).astype(np.int64)
        change = _key_change_mask(karr, n)
        starts = np.flatnonzero(change)
        seg_base = np.repeat(np.r_[0, np.cumsum(w)[starts[1:] - 1]], np.diff(np.r_[starts, n]))
        cum_incl = np.cumsum(w) - seg_base  # within-key inclusive weight
        cum_excl = cum_incl - w
        totals = np.repeat(cum_incl[np.r_[starts[1:] - 1, n - 1]], np.diff(np.r_[starts, n]))
        cols = {key: karr.take(pa.array(starts))}
        for q, name in zip(qs, out_names):
            t_pos = np.minimum(
                np.floor(q * totals).astype(np.int64), totals - 1
            )
            hit = (t_pos >= cum_excl) & (t_pos < cum_incl)
            cols[name] = pa.array(v[hit])
        return pa.table(cols)

    combined = ds.map_batches(
        block, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(combine, batch_format="pyarrow", batch_size=merge_rows)
    return exchange.bucketed(combined, key, num_buckets, bucket_q)


# ---------------------------------------------------------------------------
# Count-Min sketch — mergeable point-frequency summary (Cormode &
# Muthukrishnan 2005), with an HLL++-style SPARSE-EXACT regime: while a
# partial holds ≤ ``width//2`` distinct hashed values it stays an exact
# (hash, count) table, and partials convert losslessly to the dense
# depth×width counter matrix only on overflow. Small-cardinality answers
# are therefore EXACT and deterministic (same trick as
# ``approx_count_distinct``'s sparse mode), which is what makes the
# driver oracle possible; at scale the dense matrix bounds every partial
# at depth×width×8 bytes regardless of corpus size.
# ---------------------------------------------------------------------------


def _cms_hash2(col) -> tuple[np.ndarray, np.ndarray]:
    from sqlgrep_ray.stages.bloom import _hash2

    return _hash2(col)


def _cms_rows(h1: np.ndarray, h2: np.ndarray, depth: int, width: int) -> np.ndarray:
    """(depth, n) column indices via Kirsch-Mitzenmacher double hashing."""
    w = np.uint64(width)
    return np.stack(
        [((h1 + np.uint64(i) * h2) % w).astype(np.int64) for i in range(depth)]
    )


def count_min_counts(
    ds: "ray.data.Dataset",
    col: str,
    items: list,
    width: int = 8192,
    depth: int = 4,
    merge_batch: int = 256,
) -> pa.Table:
    """Estimated frequency of each of ``items`` among the non-null values
    of ``col``: exact in the sparse regime, else the CMS upper-bound
    estimate (≥ true count; ≤ true + εN w.h.p., ε = e/width).

    Returns a pa.Table ``(col, n)`` in the order of ``items`` (absent
    items count 0). Build is one streaming pass: per-block value_counts →
    sparse partials → size-capped merges; no shuffle, driver receives one
    bounded row."""
    sparse_max = width // 2

    def _sparse(h: np.ndarray, c: np.ndarray) -> pa.Table:
        return pa.table(
            {"flag": pa.array([0], pa.int8()),
             "payload": pa.array([h.tobytes() + c.tobytes()], pa.binary())}
        )

    def _dense(cms: np.ndarray) -> pa.Table:
        return pa.table(
            {"flag": pa.array([1], pa.int8()),
             "payload": pa.array([cms.tobytes()], pa.binary())}
        )

    def _to_dense(h: np.ndarray, c: np.ndarray) -> np.ndarray:
        cms = np.zeros((depth, width), dtype=np.uint64)
        if len(h):
            rows = _cms_rows(h, np.bitwise_or(h >> np.uint64(32), np.uint64(1)), depth, width)
            for i in range(depth):
                np.add.at(cms[i], rows[i], c)
        return cms

    def block(t: pa.Table) -> pa.Table:
        c = t[col]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        vc = pc.value_counts(c.drop_null())
        vals, counts = vc.field("values"), vc.field("counts")
        h1, _ = _cms_hash2(vals)
        counts_np = counts.to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.argsort(h1)
        h1, counts_np = h1[order], counts_np[order]
        if len(h1) <= sparse_max:
            return _sparse(h1, counts_np)
        return _dense(_to_dense(h1, counts_np))

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _sparse(np.empty(0, np.uint64), np.empty(0, np.uint64))
        flags = t["flag"].to_pylist()
        pls = t["payload"].to_pylist()
        hs, cs, dense = [], [], None
        for f, b in zip(flags, pls):
            if f == 0:
                n = len(b) // 16
                hs.append(np.frombuffer(b[: n * 8], np.uint64))
                cs.append(np.frombuffer(b[n * 8:], np.uint64))
            else:
                d = np.frombuffer(b, np.uint64).reshape(depth, width)
                dense = d.copy() if dense is None else dense + d
        h = np.concatenate(hs) if hs else np.empty(0, np.uint64)
        c = np.concatenate(cs) if cs else np.empty(0, np.uint64)
        if len(h):
            u, inv = np.unique(h, return_inverse=True)
            uc = np.zeros(len(u), np.uint64)
            np.add.at(uc, inv, c)
            h, c = u, uc
        if dense is None and len(h) <= sparse_max:
            return _sparse(h, c)
        summed = _to_dense(h, c)
        if dense is not None:
            summed += dense
        return _dense(summed)

    partials = exchange.one_block(
        ds.select_columns([col])
        .map_batches(block, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(merge, batch_format="pyarrow", batch_size=merge_batch),
        merge,
    )
    rows = partials.take_all()
    q = pa.array(items)
    qh, _ = _cms_hash2(q)
    if not rows:
        est = np.zeros(len(items), np.int64)
    elif rows[0]["flag"] == 0:
        b = rows[0]["payload"]
        n = len(b) // 16
        if n == 0:
            est = np.zeros(len(items), np.int64)
        else:
            h = np.frombuffer(b[: n * 8], np.uint64)
            c = np.frombuffer(b[n * 8:], np.uint64)
            pos = np.minimum(np.searchsorted(h, qh), n - 1)
            est = np.where(h[pos] == qh, c[pos], 0).astype(np.int64)
    else:
        cms = np.frombuffer(rows[0]["payload"], np.uint64).reshape(depth, width)
        rows_idx = _cms_rows(qh, np.bitwise_or(qh >> np.uint64(32), np.uint64(1)), depth, width)
        est = np.min(
            np.stack([cms[i][rows_idx[i]] for i in range(depth)]), axis=0
        ).astype(np.int64)
    return pa.table({col: q, "n": pa.array(est, pa.int64())})


def heavy_tokens(
    ds: "ray.data.Dataset",
    k: int = 256,
    text_col: str = "text",
    lower: bool = True,
    merge_rows: int = 65536,
) -> "ray.data.Dataset":
    """Heavy hitters over the whitespace-tokenized text column (the
    sketch-path complement of ``vocab.top_tokens``)."""

    def toks(t: pa.Table) -> pa.Table:
        c = t[text_col]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        filled = pc.fill_null(c, "")
        if lower:
            filled = pc.utf8_lower(filled)
        flat = pc.list_flatten(split_whitespace(filled))
        flat = flat.filter(pc.not_equal(flat, ""))
        return pa.table({"token": flat})

    tokens = ds.select_columns([text_col]).map_batches(
        toks, batch_format="pyarrow", zero_copy_batch=True
    )
    return heavy_hitters(tokens, "token", k=k, merge_rows=merge_rows)
