"""Deduplication operators for large-scale training-data pipelines.

None of these exist in the reference (sqlgrep's only dedup is row-level
``SELECT DISTINCT``, ``src/execution/helpers.rs:5-25``); they are the
scale-path additions the north_star calls for. All are built from the same
Ray Data primitives as the query engine: vectorized ``map_batches`` for
per-document signatures, ONE hash shuffle (``groupby``) to co-locate
candidates, and per-group vectorized resolution.

* exact_dedup        — hash-partition on the key column, keep min-id row.
* minhash_lsh_dedup  — shingle → minhash → LSH band buckets → per-bucket
                       verify; near-dup pairs at Jaccard ≥ threshold.
* simhash_dedup      — 64-bit simhash, bucket by rotated prefixes, verify by
                       Hamming distance.
* ngram_jaccard_pairs— exact n-gram Jaccard verification used by both LSH
                       paths (and standalone for small candidate sets).

Scale notes: signatures are fixed-width (n_perm × uint64), so the shuffle
moves O(rows × n_perm × 8) bytes, never the documents; the documents travel
only for pairs that share a bucket. Buckets are bounded by banding; a
pathological bucket (all-identical corpus) degrades to the per-group path —
cap with ``max_bucket`` and log drops.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from sqlgrep_ray.stages import exchange
from sqlgrep_ray.stages.textnorm import split_whitespace

# Above this many candidate rows the single-task verify path is replaced by
# the distributed shuffle path automatically (see ``_hot_bucket_verify``).
AUTO_DISTRIBUTED_THRESHOLD = 200_000

# Above this many DISTINCT hot buckets the broadcast-array membership filter
# is replaced by a distributed semi-join on ``bucket`` — the hot set never
# has to exist as one in-memory array (dup-heavy corpora: O(rows × bands)
# distinct buckets would OOM both the merge task and the ray.put broadcast).
HOT_BROADCAST_MAX = 2_000_000

# Candidate-doc payloads (id, text) smaller than this broadcast to every
# verify task instead of riding a hash join — at 200k docs the join shuffle
# was ~6 s of pure exchange for a ~20 MB candidate text set.
TEXT_BROADCAST_MAX_BYTES = 256 * 1024 * 1024

# 16-bit popcount LUT (64 KiB, built once per worker process): vectorized
# Hamming distance over uint64 arrays — numpy < 2.0 has no bitwise_count,
# and the 16-bit table beats both the 8-bit one and a SWAR popcount
# (uint64 multiplies are slow in numpy); measured 21 ms vs ~1 s for the
# Python pair loop on a full 1024-row bucket
_POPCOUNT16 = np.array(
    [bin(b).count("1") for b in range(1 << 16)], dtype=np.uint8
)


def _hot_buckets(
    bucketed: "ray.data.Dataset",
) -> tuple["ray.data.Dataset", int, int]:
    """Hot-bucket stats: ``(hot, n_hot, n_cand)`` where ``hot`` is a
    Dataset of (bucket, n) rows with n ≥ 2.

    Per-block combiner counts first (vectorized ``pa.TableGroupBy``), so
    only (bucket, partial-count) rows move — never payloads — then the
    engine's one merge (``exchange.merge``): on the driver when the
    partials are few (a Ray all-to-all there costs seconds of pure task
    overhead), else bucketed, so per-worker memory is distinct-buckets /
    buckets, never the full distinct-bucket set in one task (the round-2
    single-block scale-killer)."""

    def partial_counts(t: pa.Table) -> pa.Table:
        return pa.TableGroupBy(t.select(["bucket"]), ["bucket"]).aggregate(
            [([], "count_all")]
        )

    def hot_rows(t: pa.Table) -> pa.Table:
        t = t.select(["bucket", "count_all"]).rename_columns(["bucket", "n"])
        return t.filter(pc.greater_equal(t["n"], 2))

    partials = bucketed.map_batches(
        partial_counts, batch_format="pyarrow", zero_copy_batch=True
    )
    merged = exchange.merge(partials, ["bucket"], [("count_all", "sum")])
    if isinstance(merged, pa.Table):
        hot_tbl = hot_rows(merged)
        n_cand = int(pc.sum(hot_tbl["n"]).as_py() or 0)
        return ray.data.from_arrow(hot_tbl), hot_tbl.num_rows, n_cand
    hot = exchange.apply(merged, hot_rows).materialize()
    n_hot = hot.count()
    n_cand = int(hot.sum("n") or 0) if n_hot else 0
    return hot, n_hot, n_cand


def _filter_hot(ds: "ray.data.Dataset", hot: pa.Array) -> "ray.data.Dataset":
    import ray

    hot_ref = ray.put(hot)

    def f(t: pa.Table, hot_ref=None) -> pa.Table:
        h = ray.get(hot_ref) if isinstance(hot_ref, ray.ObjectRef) else hot_ref
        return t.filter(pc.is_in(t["bucket"], value_set=h))

    return ds.map_batches(
        f, fn_kwargs=dict(hot_ref=hot_ref), batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _collect_buckets(hot: "ray.data.Dataset") -> pa.Array:
    """Hot bucket keys as one driver-side array — callers gate on
    ``n_hot <= HOT_BROADCAST_MAX`` first."""
    tbls = list(
        hot.select_columns(["bucket"]).iter_batches(batch_format="pyarrow")
    )
    if not tbls:
        return pa.array([], pa.int64())
    return pa.concat_tables(tbls)["bucket"].combine_chunks()


def _semi_join_hot(
    bucketed: "ray.data.Dataset", hot: "ray.data.Dataset", n_hot: int
) -> "ray.data.Dataset":
    """Candidate rows (members of a hot bucket): broadcast membership filter
    while the hot set is small, else a distributed semi-join on ``bucket``
    (``enrich.shuffle_join``: the same ``is_in`` per key bucket)."""
    if n_hot <= HOT_BROADCAST_MAX:
        return _filter_hot(bucketed, _collect_buckets(hot))
    from sqlgrep_ray.stages.enrich import shuffle_join

    return shuffle_join(
        bucketed, hot.select_columns(["bucket"]), ["bucket"], how="semi"
    )


def _chunked_verify(
    verify_small: "Callable[[pa.Table, Any], pa.Table]",
    empty: pa.Table,
    max_bucket: int,
    sort_keys: "list[tuple[str, str]]",
    metrics=None,
):
    """Wrap a capacity-bounded pairwise verifier so buckets of ANY size are
    verified — an oversized bucket is sorted by ``sort_keys`` (content
    locality: identical/near-identical rows become adjacent) and verified in
    overlapping chunks of ``max_bucket`` rows (one-row overlap chains a run
    of duplicates across chunk boundaries, so duplicate CLUSTERS stay
    connected even though the O(m²) cross-chunk pair listing is elided).
    Nothing is dropped; oversized buckets are counted into ``metrics``
    (``dedup.oversized_buckets`` / ``dedup.oversized_rows``) and
    ``dedup.dropped_rows`` stays 0 by construction.

    ``verify_small(group, aux)``: ``aux`` is the per-row prepared payload
    slice (row-aligned list, e.g. shingle sets) or None — see the
    ``prepare`` hook on the verify drivers."""
    actor = metrics.actor if metrics is not None else None

    def verify(group: pa.Table, aux=None) -> pa.Table:
        m = group.num_rows
        if m < 2:
            return empty
        if m <= max_bucket:
            return verify_small(group, aux)
        if actor is not None:
            actor.incr.remote("dedup.oversized_buckets", 1)
            actor.incr.remote("dedup.oversized_rows", m)
        idx = pc.sort_indices(group, sort_keys)
        g = group.take(idx)
        if aux is not None:
            order = idx.to_numpy(zero_copy_only=False)
            aux = [aux[i] for i in order]
        pieces = []
        step = max_bucket - 1  # one-row overlap between consecutive chunks
        for s in range(0, m - 1, step):
            ln = min(max_bucket, m - s)
            chunk = g.slice(s, ln)
            if chunk.num_rows >= 2:
                out = verify_small(
                    chunk, aux[s : s + ln] if aux is not None else None
                )
                if out.num_rows:
                    pieces.append(out)
        if not pieces:
            return empty
        all_pairs = pa.concat_tables(pieces)
        return _pair_dedup_tbl(all_pairs)

    return verify


def _pair_dedup_tbl(t: pa.Table) -> pa.Table:
    """In-task pair dedup keyed on (id_a, id_b) ONLY — never on the score
    columns: the same pair verified in two different buckets can yield
    last-bit-different floats (BLAS matmul summation order depends on the
    bucket's shape), so an all-columns group_by would keep both rows."""
    if t.num_rows == 0:
        return t
    extras = [c for c in t.column_names if c not in ("id_a", "id_b")]
    agg = t.group_by(["id_a", "id_b"]).aggregate([(c, "max") for c in extras])
    cols = {"id_a": agg["id_a"], "id_b": agg["id_b"]}
    for c in extras:
        cols[c] = agg[f"{c}_max"]
    return pa.table(cols)


def _shingle_sets_batch(
    filled: "pa.Array | pa.ChunkedArray", k: int
) -> "list[set[int]]":
    """Per-row token-shingle hash sets, one VECTORIZED pass for the whole
    batch (the shared gram kernel + one blake2b per unique shingle) —
    exact-equivalent to calling ``_token_shingles`` per row, without the
    per-call single-row Arrow kernel invocations that made per-pair
    ``jaccard_tokens`` the verify bottleneck."""
    from sqlgrep_ray.stages.decontam import _doc_grams

    if isinstance(filled, pa.ChunkedArray):
        filled = filled.combine_chunks()
    n = len(filled)
    # shingle once per UNIQUE text: band explosion hands the verify the
    # same doc once per colliding band (x bands copies) and oversized
    # identical-text buckets repeat one text m times — dict-encode the
    # texts and share the set object across equal rows (read-only use)
    tenc = pc.dictionary_encode(filled)
    if isinstance(tenc, pa.ChunkedArray):
        tenc = tenc.combine_chunks()
    tcodes = tenc.indices.to_numpy(zero_copy_only=False)
    uniq = tenc.dictionary
    usets: list[set[int]] = [set() for _ in range(len(uniq))]
    grams, rows, _ntok = _doc_grams(uniq, k)
    if len(grams):
        enc = pc.dictionary_encode(grams)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        uh = np.fromiter(
            (_hash64(u.encode()) for u in enc.dictionary.to_pylist()),
            dtype=np.uint64,
            count=len(enc.dictionary),
        )
        h = uh[codes]
        for r, hv in zip(rows.tolist(), h.tolist()):
            usets[r].add(hv)
    return [usets[c] for c in tcodes.tolist()]


# bucket-verify shuffle width: candidates shuffle to num_parts partitions
# (bucket & (P-1)), each task loops its buckets vectorized — per-bucket
# ``map_groups`` pays Ray group dispatch per bucket, ruinous at millions of
# tiny buckets
VERIFY_PARTS = 64

# per-partition row target for the bucket-hash shuffles: partitions scale
# with volume (power of 2 for the bit-mask key) so per-worker memory stays
# ~target x row width at ANY candidate count, instead of candidates/64
VERIFY_PART_TARGET = 500_000
VERIFY_PARTS_CAP = 4096


def _auto_parts(n_rows: int) -> int:
    p = VERIFY_PARTS
    while p < VERIFY_PARTS_CAP and n_rows // p > VERIFY_PART_TARGET:
        p *= 2
    return p


def _grouped_verify(
    cands: "ray.data.Dataset",
    verify: "Callable[[pa.Table, Any], pa.Table]",
    empty: pa.Table,
    num_parts: int = VERIFY_PARTS,
    prepare=None,
) -> "ray.data.Dataset":
    """Run ``verify`` over every bucket of ``cands`` with ONE hash shuffle
    to ``num_parts`` partitions: sort each partition by bucket in-task and
    walk the bucket runs — same result as ``groupby("bucket").map_groups``
    with per-group dispatch amortized away.

    ``prepare(sorted_table) -> list`` (optional) computes a per-row payload
    ONCE per task (e.g. shingle sets — 10× cheaper than per-bucket
    recompute); each bucket's verify receives its row-aligned slice."""

    def add_part(t: pa.Table) -> pa.Table:
        part = pc.bit_wise_and(t["bucket"], num_parts - 1)
        return t.append_column("__part", pc.cast(part, pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__part"])
        g = g.take(pc.sort_indices(g, [("bucket", "ascending")]))
        aux = prepare(g) if prepare is not None else None
        b = g["bucket"].to_numpy(zero_copy_only=False)
        cuts = np.flatnonzero(np.r_[True, b[1:] != b[:-1], True])
        pieces = []
        for s, e in zip(cuts[:-1], cuts[1:]):
            if e - s >= 2:
                out = verify(
                    g.slice(s, e - s), aux[s:e] if aux is not None else None
                )
                if out.num_rows:
                    pieces.append(out)
        return pa.concat_tables(pieces) if pieces else empty

    return (
        cands.map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__part")
        .map_groups(per_part, batch_format="pyarrow")
    )


def _distinct_pairs(pairs: "ray.data.Dataset", empty: pa.Table) -> "ray.data.Dataset":
    """Distributed pair dedup: the same (id_a, id_b) surfaces once per
    colliding band/table — ONE bucketed merge keyed on the pair (extra
    columns — jaccard/hamming/cosine — are identical across duplicates;
    max is a no-op merge), always off the driver (``small=False``).

    Measured note (r3): a driver-side small-path variant (materialize +
    pull + one TableGroupBy) was TRIED and reverted — fetching the verify
    stage's many small generator blocks to the driver cost ~15 s at 200k
    docs, far more than the exchange. Unlike the stats /
    vocab / textdup AUTO merges (whose partials are per-block combined and
    few), the verify output arrives as many tiny blocks, and pulling them
    serially to one process is the slow path."""
    extra = [c for c in empty.column_names if c not in ("id_a", "id_b")]
    return exchange.merge(pairs, ["id_a", "id_b"], [(c, "max") for c in extra], False)


def _attach_payload(
    cands: "ray.data.Dataset",
    payload: "ray.data.Dataset",
    id_col: str,
    n_cand: int,
) -> "Optional[ray.data.Dataset]":
    """Attach per-id payload columns (document text / embedding vectors) to
    candidate rows, size-aware — payloads never ride the band explosion or
    the hot-stats shuffle; they are fetched once per colliding id here:

    * ``n_cand`` ≤ ``HOT_BROADCAST_MAX``: broadcast the candidate id set,
      filter the payload side to colliding ids only; if the filtered
      payload then fits ``TEXT_BROADCAST_MAX_BYTES``, ship it to every task
      (``ray.put``) and attach by vectorized searchsorted — no join
      exchange at all;
    * otherwise: ``enrich.shuffle_join`` on ``id_col`` (list-typed payload
      columns ride its exchange as they are).

    Returns None when there are no candidate rows. ``id_col`` values must
    be unique in ``payload`` (they are document keys)."""
    import ray

    # consumed twice on the broadcast path (id collection + attach) — pin
    cands = cands.materialize()
    filtered = payload
    if n_cand <= HOT_BROADCAST_MAX:
        cid_tbls = list(
            cands.select_columns([id_col]).iter_batches(batch_format="pyarrow")
        )
        if not cid_tbls:
            return None
        cand_id_arr = pc.unique(
            pa.concat_tables(cid_tbls)[id_col].combine_chunks()
        )
        ids_ref = ray.put(cand_id_arr)

        def keep_cand(t: pa.Table, ids_ref=None) -> pa.Table:
            ids = (
                ray.get(ids_ref)
                if isinstance(ids_ref, ray.ObjectRef)
                else ids_ref
            )
            return t.filter(pc.is_in(t[id_col], value_set=ids))

        filtered = payload.map_batches(
            keep_cand, fn_kwargs=dict(ids_ref=ids_ref),
            batch_format="pyarrow", zero_copy_batch=True,
        ).materialize()
        if filtered.size_bytes() <= TEXT_BROADCAST_MAX_BYTES:
            tbls = list(filtered.iter_batches(batch_format="pyarrow"))
            if not tbls:
                return None
            ptbl = pa.concat_tables(tbls).combine_chunks()
            ptbl = ptbl.take(pc.sort_indices(ptbl[id_col]))
            pref = ray.put(ptbl)
            pcols = [c for c in ptbl.column_names if c != id_col]

            def attach(t: pa.Table, pref=None) -> pa.Table:
                dt = (
                    ray.get(pref) if isinstance(pref, ray.ObjectRef) else pref
                )
                pos = pa.array(
                    np.searchsorted(
                        dt[id_col].to_numpy(zero_copy_only=False),
                        t[id_col].to_numpy(zero_copy_only=False),
                    )
                )
                for c in pcols:
                    col = dt[c]
                    if isinstance(col, pa.ChunkedArray):
                        col = col.combine_chunks()
                    t = t.append_column(c, col.take(pos))
                return t

            return cands.map_batches(
                attach, fn_kwargs=dict(pref=pref),
                batch_format="pyarrow", zero_copy_batch=True,
            )

    from sqlgrep_ray.stages.enrich import shuffle_join

    return shuffle_join(cands, filtered, [id_col])


def _verify_one_block(
    cands: "ray.data.Dataset",
    verify: "Callable[[pa.Table, Any], pa.Table]",
    empty: pa.Table,
    prepare=None,
) -> "ray.data.Dataset":
    """Single-task verify for SMALL candidate sets: coalesce, sort by bucket,
    vectorized slice per bucket, in-task pair dedup. Avoids
    ``groupby().map_groups`` whose per-group Python call over mostly-singleton
    buckets dominated the stage (~0.1 ms × |buckets|). ``prepare`` as in
    :func:`_grouped_verify`."""

    def verify_all(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        t = t.take(pc.sort_indices(t, [("bucket", "ascending")]))
        aux = prepare(t) if prepare is not None else None
        b = t["bucket"].to_numpy(zero_copy_only=False)
        cuts = np.flatnonzero(np.r_[True, b[1:] != b[:-1], True])
        pieces = []
        for s, e in zip(cuts[:-1], cuts[1:]):
            if e - s >= 2:
                out = verify(
                    t.slice(s, e - s), aux[s:e] if aux is not None else None
                )
                if out.num_rows:
                    pieces.append(out)
        if not pieces:
            return empty
        all_pairs = pa.concat_tables(pieces)
        return _pair_dedup_tbl(all_pairs)

    return exchange.one_block(cands, verify_all)


def _hot_bucket_verify(
    bucketed: "ray.data.Dataset",
    verify: "Callable[[pa.Table], pa.Table]",
    empty: pa.Table,
    distributed: Optional[bool] = None,
    auto_threshold: int = AUTO_DISTRIBUTED_THRESHOLD,
) -> "ray.data.Dataset":
    """Run ``verify`` over every bucket that has ≥2 members.

    ``bucketed`` must carry every column ``verify`` needs plus ``bucket``.
    Hot-bucket stats are computed combiner-first (per-block counts + one
    merge, ``_hot_buckets``); the path is then chosen from them:

    * local (small candidate set): membership-filter to candidates,
      coalesce to ONE task, loop buckets vectorized — no further shuffle;
    * distributed (``distributed=True`` or candidate rows > auto_threshold):
      hash-shuffle candidates on ``bucket``, verify per group, then ONE
      vectorized pair-dedup aggregate — bounded per-worker memory on
      near-dup-heavy corpora where the collision set would OOM one task.

    ``verify`` itself must handle buckets of any size (see
    ``_chunked_verify``) — oversized buckets are sub-split, never dropped.
    """
    # two consumers (count pass + candidate filter) — pin the bucketed set
    # (narrow: ids + fixed-width signatures, never document text) once
    bucketed = bucketed.materialize()
    hot, n_hot, n_cand = _hot_buckets(bucketed)
    if n_hot == 0:
        return ray.data.from_arrow(empty)
    if distributed is None:
        distributed = n_cand > auto_threshold

    cands = _semi_join_hot(bucketed, hot, n_hot)
    if distributed:
        pairs = _grouped_verify(cands, verify, empty, num_parts=_auto_parts(n_cand))
        return _distinct_pairs(pairs, empty)
    return _verify_one_block(cands, verify, empty)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(
    ds: "ray.data.Dataset", key: str, id_col: str
) -> "ray.data.Dataset":
    """Keep exactly one row per distinct ``key`` — the one with MIN ``id_col``
    (deterministic winner); a NULL key is one group of its own. One merge
    on ``key`` (``exchange.merge``)."""

    def block_min(t: pa.Table) -> pa.Table:
        # map-side combine: one candidate per key per block
        return pa.TableGroupBy(t, [key]).aggregate([(id_col, "min")])

    narrow = ds.select_columns([key, id_col]).map_batches(
        block_min, batch_format="pyarrow", zero_copy_batch=True
    )
    merged = exchange.merge(narrow, [key], [(f"{id_col}_min", "min")])
    return exchange.as_dataset(
        exchange.apply(merged, lambda t: t.rename_columns([key, id_col]))
    )


# ---------------------------------------------------------------------------
# shingling / hashing primitives (vectorized per batch)
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1
_HASHER_CACHE: dict = {}  # per-worker-process stage state (stateless tasks)


def _hash64(s: bytes) -> int:
    """Process-stable 64-bit hash (python's ``hash()`` is salted per process
    — never use it in a distributed signature)."""
    return int.from_bytes(hashlib.blake2b(s, digest_size=8).digest(), "little")


def _token_shingles(text: str, k: int) -> set[int]:
    from sqlgrep_ray.stages.textnorm import arrow_split

    toks = arrow_split(text)
    if len(toks) < k:
        return {_hash64(" ".join(toks).encode())} if toks else set()
    out = set()
    for i in range(len(toks) - k + 1):
        out.add(_hash64(" ".join(toks[i : i + k]).encode()))
    return out


def _minhash_params(n_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, n_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE, n_perm, dtype=np.uint64)
    return a, b


class MinHasher:
    """text → minhash signature (n_perm × uint64); built once per worker
    process via ``_HASHER_CACHE`` (stateful-stage pattern — cf. reference
    regex compile-once, ``data_model.rs:44-50``)."""

    def __init__(self, text_col: str = "text", n_perm: int = 64, shingle_k: int = 3):
        self.text_col = text_col
        self.n_perm = n_perm
        self.k = shingle_k
        self.a, self.b = _minhash_params(n_perm)

    def signature(self, text: Optional[str]) -> np.ndarray:
        sh = _token_shingles(text or "", self.k)
        if not sh:
            return np.full(self.n_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        x = np.fromiter(sh, dtype=np.uint64, count=len(sh))
        # (a*x + b) mod p, rowwise min — vectorized over shingles × perms
        vals = (
            np.multiply.outer(self.a, x) + self.b[:, None]
        ) % np.uint64(_MERSENNE)
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Batch path, exact-equivalent to per-row :meth:`signature`:
        shingle strings come from the shared vectorized gram kernel
        (``decontam._doc_grams``), blake2b runs once per UNIQUE shingle
        (dictionary-encode), and each permutation is one wrap-mod pass +
        ``minimum.reduceat`` over the row-sorted occurrence stream (min
        over the occurrence multiset == min over the shingle set)."""
        from sqlgrep_ray.stages.decontam import _doc_grams

        col = batch[self.text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        filled = pc.fill_null(col, "")
        n = len(filled)
        grams, rows, _ntok = _doc_grams(filled, self.k)
        sigs = np.full((n, self.n_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
        if len(grams):
            enc = pc.dictionary_encode(grams)
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.combine_chunks()
            codes = enc.indices.to_numpy(zero_copy_only=False)
            uh = np.fromiter(
                (_hash64(u.encode()) for u in enc.dictionary.to_pylist()),
                dtype=np.uint64,
                count=len(enc.dictionary),
            )
            order = np.argsort(rows, kind="stable")
            rs, occ = rows[order], uh[codes[order]]
            seg_starts = np.flatnonzero(
                np.concatenate([[True], rs[1:] != rs[:-1]])
            )
            seg_rows = rs[seg_starts]
            v = np.empty(len(occ), dtype=np.uint64)
            m = np.uint64(_MERSENNE)
            for p in range(self.n_perm):
                # a*x wraps mod 2^64 exactly like multiply.outer in
                # signature() — keep the wrap for bit-identical output
                np.multiply(occ, self.a[p], out=v)
                np.add(v, self.b[p], out=v)
                np.mod(v, m, out=v)
                sigs[seg_rows, p] = np.minimum.reduceat(v, seg_starts)
        sig_list = pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.reshape(-1)), self.n_perm
        )
        return batch.append_column("minhash", sig_list)


def ngram_jaccard_pairs(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.8,
    shingle_k: int = 3,
) -> "ray.data.Dataset":
    """EXACT all-pairs n-gram Jaccard ≥ threshold — O(n²), for SMALL
    candidate sets only (e.g. the output of an LSH pre-filter or a single
    partition). For corpora use ``minhash_lsh_dedup``, which bounds the
    comparisons by banding."""

    def all_pairs(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        texts = t[text_col].to_pylist()
        shingles = [_token_shingles(x or "", shingle_k) for x in texts]
        a_out, b_out, j_out = [], [], []
        order = np.argsort(ids)
        m = len(ids)
        for x in range(m):
            for y in range(x + 1, m):
                i, j = order[x], order[y]
                if ids[i] == ids[j]:
                    continue
                sa, sb = shingles[i], shingles[j]
                if not sa and not sb:
                    jac = 1.0
                elif not sa or not sb:
                    jac = 0.0
                else:
                    inter = len(sa & sb)
                    jac = inter / (len(sa) + len(sb) - inter)
                if jac >= threshold:
                    a_out.append(ids[i])
                    b_out.append(ids[j])
                    j_out.append(jac)
        return pa.table(
            {
                "id_a": pa.array(a_out, pa.int64()),
                "id_b": pa.array(b_out, pa.int64()),
                "jaccard": pa.array(j_out, pa.float64()),
            }
        )

    return exchange.one_block(ds.select_columns([id_col, text_col]), all_pairs)


def jaccard_tokens(a: str, b: str, k: int = 3) -> float:
    sa, sb = _token_shingles(a or "", k), _token_shingles(b or "", k)
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter) if (sa or sb) else 0.0


def minhash_lsh_dedup(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    n_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.8,
    shingle_k: int = 3,
    max_bucket: int = 512,
    distributed: Optional[bool] = None,
    auto_threshold: int = AUTO_DISTRIBUTED_THRESHOLD,
    metrics=None,
) -> "ray.data.Dataset":
    """Near-duplicate PAIRS (id_a < id_b, jaccard ≥ threshold).

    shingle → minhash → explode to (id, band-bucket) keys ONLY — document
    text never rides the band explosion (×bands) or the shuffle; it is
    re-attached just for the colliding candidate ids in the verify pass:

    * local path (small collision set): broadcast the candidate id set,
      filter the corpus to candidate (id, text) rows, verify in one task;
    * distributed path (``distributed=True`` or candidates > auto_threshold):
      hash-join candidates back to (id, text) on ``id_col`` then
      ``groupby(bucket)`` verify per group — bounded per-worker memory.

    The pinned intermediate is (id:int64, bucket:int64) — 16 bytes × rows ×
    bands, not the corpus. Hot-bucket stats are distributed
    (``_hot_buckets``); a bucket over ``max_bucket`` rows is sub-split by
    content order, never dropped (``_chunked_verify``; ``metrics`` counts
    oversized buckets).
    """
    import ray

    rows_per_band = n_perm // bands

    # stateless task + per-worker-process cache (no actor-pool spin-up; cf.
    # flagship router): the permutation params build once per process
    def minhash_batch(t: pa.Table, text_col=text_col, n_perm=n_perm, k=shingle_k):
        key = (text_col, n_perm, k)
        mh = _HASHER_CACHE.get(key)
        if mh is None:
            mh = _HASHER_CACHE[key] = MinHasher(text_col, n_perm, k)
        return mh(t)

    docs = ds.select_columns([id_col, text_col])
    sigged = docs.map_batches(
        minhash_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def explode_bands(t: pa.Table) -> pa.Table:
        n = t.num_rows
        sig = np.asarray(t["minhash"].combine_chunks().flatten()).reshape(n, n_perm)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        out_ids, out_key = [], []
        for b in range(bands):
            band = sig[:, b * rows_per_band : (b + 1) * rows_per_band]
            bh = np.array(
                [
                    _hash64(bytes([b]) + band[r].tobytes()) & 0x7FFFFFFFFFFFFFFF
                    for r in range(n)
                ],
                dtype=np.int64,
            )
            out_ids.append(ids)
            out_key.append(bh)
        return pa.table(
            {
                id_col: pa.array(np.concatenate(out_ids)),
                "bucket": pa.array(np.concatenate(out_key).astype(np.int64)),
            }
        )

    exploded = sigged.map_batches(
        explode_bands, batch_format="pyarrow", zero_copy_batch=True
    )

    def prepare_sets(t: pa.Table):
        """Per-task bulk shingle pass (the ``prepare`` hook): one vectorized
        gram kernel call for ALL rows of the task's sorted candidate table —
        ~10× cheaper than re-running it per 2-row bucket."""
        return _shingle_sets_batch(pc.fill_null(t[text_col], ""), shingle_k)

    def verify_small(group: pa.Table, sets=None) -> pa.Table:
        """Exact-Jaccard verify, vectorized (replaces the round-3 O(m²)
        Python pair loop with per-pair set intersections): rows are
        deduped to UNIQUE shingle sets first (near-dup buckets are
        identical-set-heavy, so u ≪ m), pairwise intersections over the
        unique sets come from ONE postings co-occurrence accumulation
        (for each shingle shared by ≥2 sets, a vectorized square add —
        total work Σ run² adds instead of m²/2 Python set ops), and row
        pairs read their Jaccard from the u×u matrix. Same pair set and
        values as the loop (equal sets → 1.0 incl. the both-empty case)."""
        m = group.num_rows
        empty_out = pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
        if m < 2:
            return empty_out
        ids = group[id_col].to_numpy(zero_copy_only=False)
        if sets is None:
            # no prepared payload (direct caller): one vectorized
            # shingle pass for the bucket
            sets = _shingle_sets_batch(
                pc.fill_null(group[text_col], ""), shingle_k
            )
        order = np.argsort(ids, kind="stable")  # id_a < id_b in output
        ids = ids[order]
        sets = [sets[k] for k in order]
        if m <= 16:
            # typical LSH bucket: a handful of rows — the direct pair
            # loop beats the dedup/postings machinery's per-bucket setup
            # (measured: the all-vectorized variant was 3x SLOWER at 200k
            # docs because frozenset fingerprinting re-copied every
            # shingle set per bucket)
            a_out, b_out, j_out = [], [], []
            for x in range(m):
                for y in range(x + 1, m):
                    if ids[x] == ids[y]:
                        continue
                    sa, sb = sets[x], sets[y]
                    if not sa and not sb:
                        jac = 1.0
                    else:
                        inter = len(sa & sb)
                        jac = inter / (len(sa) + len(sb) - inter)
                    if jac >= threshold:
                        a_out.append(ids[x])
                        b_out.append(ids[y])
                        j_out.append(jac)
            return pa.table(
                {
                    "id_a": pa.array(a_out, pa.int64()),
                    "id_b": pa.array(b_out, pa.int64()),
                    "jaccard": pa.array(j_out, pa.float64()),
                }
            )
        uniq_of: dict = {}
        row_u = np.empty(m, np.int64)
        reps: list = []
        for r, s in enumerate(sets):
            # (len, sum mod 2^64) set fingerprint: C-speed, no frozenset
            # copy (the copy made the first version 3x slower end-to-end);
            # a collision between DIFFERENT sets needs equal length AND
            # equal 64-bit hash sum — same negligible-collision contract
            # as every fingerprint in this module
            key = (len(s), sum(s) & 0xFFFFFFFFFFFFFFFF)
            uidx = uniq_of.get(key)
            if uidx is None:
                uidx = len(reps)
                uniq_of[key] = uidx
                reps.append(s)
            row_u[r] = uidx
        u = len(reps)
        usizes = np.fromiter((len(s) for s in reps), np.int64, count=u)
        jmat = np.ones((u, u))  # identical sets (diagonal): jaccard 1.0
        if u > 1:
            total = int(usizes.sum())
            all_sh = np.fromiter(
                (h for s in reps for h in s), np.uint64, count=total
            )
            set_of = np.repeat(np.arange(u, dtype=np.int64), usizes)
            o2 = np.argsort(all_sh, kind="stable")
            sh_s, so = all_sh[o2], set_of[o2]
            starts = np.flatnonzero(np.r_[True, sh_s[1:] != sh_s[:-1]])
            lens = np.diff(np.r_[starts, total])
            mat = np.zeros((u, u), np.int64)
            for st, ln in zip(starts[lens >= 2], lens[lens >= 2]):
                d = so[st : st + ln]
                mat[np.ix_(d, d)] += 1
            iu = np.triu_indices(u, 1)
            inter = mat[iu].astype(np.float64)
            union = (usizes[iu[0]] + usizes[iu[1]] - inter).astype(np.float64)
            # union == 0 only when both sets are empty — but empty sets
            # dedupe to ONE unique set, so off-diagonal union is ≥ 1
            jac_u = inter / np.maximum(union, 1.0)
            jmat[iu] = jac_u
            jmat[(iu[1], iu[0])] = jac_u
        ri, rj = np.triu_indices(m, 1)
        jac = jmat[row_u[ri], row_u[rj]]
        ok = (jac >= threshold) & (ids[ri] != ids[rj])
        return pa.table(
            {
                "id_a": pa.array(ids[ri[ok]].astype(np.int64)),
                "id_b": pa.array(ids[rj[ok]].astype(np.int64)),
                "jaccard": pa.array(jac[ok]),
            }
        )

    empty = pa.table(
        {
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        }
    )
    # oversized buckets sort by text so identical/near-identical docs are
    # adjacent before chunking
    verify = _chunked_verify(
        verify_small, empty, max_bucket,
        [(text_col, "ascending"), (id_col, "ascending")], metrics,
    )

    # two consumers (count pass + hot filter) — pin the NARROW (id, bucket)
    # set; at 10^9 docs × 16 bands this is ~256 GB spread over the cluster's
    # object store, vs terabytes if text rode along (the round-1 bug)
    exploded = exploded.materialize()
    hot, n_hot, n_cand = _hot_buckets(exploded)
    if n_hot == 0:
        return ray.data.from_arrow(empty)
    if distributed is None:
        distributed = n_cand > auto_threshold

    cands = _semi_join_hot(exploded, hot, n_hot)  # (id, bucket), hot only

    if distributed:
        # attach text size-aware (broadcast filtered payload or hash join —
        # ``_attach_payload``), then shuffle candidates to their buckets
        # and verify per group
        joined = _attach_payload(cands, docs, id_col, n_cand)
        if joined is None:
            return ray.data.from_arrow(empty)
        pairs = _grouped_verify(
            joined, verify, empty, num_parts=_auto_parts(n_cand),
            prepare=prepare_sets,
        )
        return _distinct_pairs(pairs, empty)

    # local path: the candidate (id, bucket) pair set is small by
    # construction (auto_threshold bounds it) — bring it to the driver,
    # broadcast the id set, pull just those docs' text into ONE verify task
    cand_tbl = pa.concat_tables(
        list(cands.iter_batches(batch_format="pyarrow")) or [
            pa.table({id_col: pa.array([], pa.int64()),
                      "bucket": pa.array([], pa.int64())})
        ]
    )
    if cand_tbl.num_rows == 0:
        return ray.data.from_arrow(empty)
    cand_ids = pc.unique(cand_tbl[id_col].combine_chunks())
    ids_ref = ray.put(cand_ids)
    pairs_ref = ray.put(cand_tbl)

    def keep_cand(t: pa.Table, ids_ref=None) -> pa.Table:
        ids = ray.get(ids_ref) if isinstance(ids_ref, ray.ObjectRef) else ids_ref
        return t.filter(pc.is_in(t[id_col], value_set=ids))

    cand_docs = docs.map_batches(
        keep_cand, fn_kwargs=dict(ids_ref=ids_ref),
        batch_format="pyarrow", zero_copy_batch=True,
    )

    def verify_all(texts: pa.Table, pairs_ref=None) -> pa.Table:
        cand = ray.get(pairs_ref) if isinstance(pairs_ref, ray.ObjectRef) else pairs_ref
        t = cand.join(texts, keys=id_col)  # (id, bucket, text), in-task
        if t.num_rows == 0:
            return empty
        t = t.take(pc.sort_indices(t, [("bucket", "ascending")]))
        aux = prepare_sets(t)
        b = t["bucket"].to_numpy(zero_copy_only=False)
        cuts = np.flatnonzero(np.r_[True, b[1:] != b[:-1], True])
        pieces = []
        for s, e in zip(cuts[:-1], cuts[1:]):
            if e - s >= 2:
                out = verify(t.slice(s, e - s), aux[s:e])
                if out.num_rows:
                    pieces.append(out)
        if not pieces:
            return empty
        all_pairs = pa.concat_tables(pieces)
        return _pair_dedup_tbl(all_pairs)

    return exchange.one_block(
        cand_docs, functools.partial(verify_all, pairs_ref=pairs_ref)
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


class SimHasher:
    """text → 64-bit simhash over whitespace tokens (deterministic).

    ``with_msfp=True`` additionally emits ``msfp``, a 64-bit fingerprint of
    the SORTED token list — equal iff the token multisets are equal. Used by
    the ``exact_confirm`` mode of :func:`simhash_dedup`."""

    def __init__(self, text_col: str = "text", with_msfp: bool = False):
        self.text_col = text_col
        self.with_msfp = with_msfp

    @staticmethod
    def multiset_fp(text: Optional[str]) -> int:
        """64-bit token-multiset fingerprint: the SUM (mod 2^64) of the
        per-token hashes. Commutative and multiplicity-sensitive, so equal
        ⇔ equal token multisets (w.h.p.) — same contract as hashing the
        sorted token list, but it vectorizes to one segment sum over the
        already-hashed token stream in the batch path."""
        from sqlgrep_ray.stages.textnorm import arrow_split

        acc = 0
        for tok in arrow_split(text or ""):
            acc = (acc + _hash64(tok.encode())) & 0xFFFFFFFFFFFFFFFF
        return acc

    @staticmethod
    def simhash64(text: Optional[str]) -> int:
        from sqlgrep_ray.stages.textnorm import arrow_split

        acc = np.zeros(64, dtype=np.int64)
        for tok in arrow_split(text or ""):
            h = np.uint64(
                int.from_bytes(
                    hashlib.blake2b(tok.encode(), digest_size=8).digest(), "little"
                )
            )
            bits = (h >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
            acc += np.where(bits == 1, 1, -1)
        out = 0
        for i in range(64):
            if acc[i] > 0:
                out |= 1 << i
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Batch path, exact-equivalent to per-row :meth:`simhash64`: the
        same blake2b runs once per UNIQUE token (dictionary-encode — token
        streams repeat heavily), and the per-row ±1 bit accumulation is 64
        cumsum/segment-diff passes over the occurrence stream instead of a
        Python loop per token."""
        col = batch[self.text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        filled = pc.fill_null(col, "")
        n = len(filled)
        splits = split_whitespace(filled)
        if isinstance(splits, pa.ChunkedArray):
            splits = splits.combine_chunks()
        flat = splits.flatten()
        offsets = splits.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(nonempty))
        cumne = np.concatenate([[0], np.cumsum(nonempty, dtype=np.int64)])
        offs = cumne[offsets]
        starts, ends = offs[:-1], offs[1:]
        ntok = ends - starts
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        uniq = enc.dictionary.to_pylist()
        uh = np.fromiter(
            (
                int.from_bytes(
                    hashlib.blake2b(u.encode(), digest_size=8).digest(), "little"
                )
                for u in uniq
            ),
            dtype=np.uint64,
            count=len(uniq),
        )
        out = np.zeros(n, dtype=np.uint64)
        if len(codes):
            occ = uh[codes]
            T = len(occ)
            buf = np.empty(T, dtype=np.uint64)
            c = np.empty(T + 1, dtype=np.int64)
            c[0] = 0
            for b in range(64):
                # preallocated in-place shift/mask/cumsum — the loop is
                # memory-bandwidth-bound, temporaries triple its cost
                np.right_shift(occ, np.uint64(b), out=buf)
                np.bitwise_and(buf, np.uint64(1), out=buf)
                np.cumsum(buf.view(np.int64), out=c[1:])
                hits = c[ends] - c[starts]
                # majority vote: acc = 2·hits − ntok > 0
                out |= (2 * hits > ntok).astype(np.uint64) << np.uint64(b)
        batch = batch.append_column("simhash", pa.array(out, pa.uint64()))
        if self.with_msfp:
            fps = np.zeros(n, dtype=np.uint64)
            if len(codes):
                # multiset fp = modular segment SUM of token hashes (uint64
                # cumsum wraps mod 2^64; the subtraction un-wraps exactly)
                cs = np.empty(len(occ) + 1, dtype=np.uint64)
                cs[0] = 0
                np.cumsum(occ, out=cs[1:])
                fps = cs[ends] - cs[starts]
            batch = batch.append_column("msfp", pa.array(fps, pa.uint64()))
        return batch


def simhash_dedup(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 3,
    n_tables: int = 4,
    distributed: Optional[bool] = None,
    exact_confirm: bool = False,
    max_bucket: int = 1024,
    metrics=None,
) -> "ray.data.Dataset":
    """Near-dup pairs by simhash: bucket on each of ``n_tables`` 16-bit
    chunks (any pair within Hamming ≤3 of a 64-bit hash shares at least one
    of 4 chunks — pigeonhole), verify Hamming within bucket. Only
    (id, simhash, bucket) ever shuffles; ``distributed`` as in
    :func:`_hot_bucket_verify` (None = auto from candidate count). A bucket
    over ``max_bucket`` rows is sub-split in simhash order, never dropped —
    but note the recall caveat: rows in one bucket share a 16-bit band, so
    their order is decided by the OTHER 48 bits, and a pair whose ≤3
    differing bits include a high non-band bit sorts far apart and its
    cross-chunk comparison is elided (no 1-D sort key can make Hamming
    neighbours adjacent in general). Mitigations: the pair gets ``n_tables``
    independent chances — it is also a candidate in every other band it
    shares, and those buckets sort by DIFFERENT bit subsets; oversized
    buckets are counted into ``metrics`` so the exposure is observable; and
    ``exact_confirm=True`` switches the sub-split key to the token-multiset
    fingerprint, where equal rows are GUARANTEED adjacent (that path stays
    exact — it is the oracle-checked one).

    ``exact_confirm=True`` runs simhash as the CANDIDATE generator and
    confirms each surviving pair by token-multiset equality (a 64-bit
    fingerprint of the sorted token list rides beside the simhash) — the
    result is then exactly the set of equal-token-multiset pairs, which an
    ANSI-SQL oracle can reproduce (sorted-token-array equality join)."""
    def simhash_batch(t: pa.Table, text_col=text_col, msfp=exact_confirm):
        key = ("simhash", text_col, msfp)
        sh = _HASHER_CACHE.get(key)
        if sh is None:
            sh = _HASHER_CACHE[key] = SimHasher(text_col, with_msfp=msfp)
        return sh(t)

    sigged = ds.select_columns([id_col, text_col]).map_batches(
        simhash_batch, batch_format="pyarrow", zero_copy_batch=True
    )

    def explode(t: pa.Table) -> pa.Table:
        h = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        parts = []
        for i in range(n_tables):
            chunk = (h >> np.uint64(16 * i)) & np.uint64(0xFFFF)
            key = (chunk.astype(np.int64) << 3) | i
            cols = {
                id_col: pa.array(ids),
                "simhash": pa.array(h, pa.uint64()),
                "bucket": pa.array(key),
            }
            if exact_confirm:
                cols["msfp"] = t["msfp"]
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    buckets = sigged.map_batches(explode, batch_format="pyarrow")

    def verify_small(group: pa.Table, aux=None) -> pa.Table:
        # fully vectorized: XOR outer matrix + 8-bit-LUT popcount replaces
        # the round-3 O(m²) Python pair loop (~50x on a full 1024 bucket);
        # m ≤ max_bucket bounds the matrix at max_bucket² u8 bytes
        m = group.num_rows
        if m < 2:
            return pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "hamming": pa.array([], pa.int64()),
                }
            )
        ids = group[id_col].to_numpy(zero_copy_only=False)
        hs = group["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        fps = (
            group["msfp"].to_numpy(zero_copy_only=False).astype(np.uint64)
            if exact_confirm
            else None
        )
        order = np.argsort(ids, kind="stable")  # id_a < id_b in output
        ids, hs = ids[order], hs[order]
        if fps is not None:
            fps = fps[order]
        i, j = np.triu_indices(m, 1)
        x = hs[i] ^ hs[j]
        d = _POPCOUNT16[x.view(np.uint16).reshape(-1, 4)].sum(
            axis=1, dtype=np.uint8
        )
        ok = (d <= max_hamming) & (ids[i] != ids[j])
        if fps is not None:
            ok &= fps[i] == fps[j]
        return pa.table(
            {
                "id_a": pa.array(ids[i[ok]].astype(np.int64)),
                "id_b": pa.array(ids[j[ok]].astype(np.int64)),
                "hamming": pa.array(d[ok].astype(np.int64)),
            }
        )

    empty = pa.table(
        {
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "hamming": pa.array([], pa.int64()),
        }
    )
    # oversized buckets: multiset-fp order (exact_confirm: equal multisets
    # adjacent) else simhash order (Hamming-close hashes numerically near)
    sort_keys = (
        [("msfp", "ascending"), (id_col, "ascending")]
        if exact_confirm
        else [("simhash", "ascending"), (id_col, "ascending")]
    )
    verify = _chunked_verify(verify_small, empty, max_bucket, sort_keys, metrics)
    return _hot_bucket_verify(buckets, verify, empty, distributed=distributed)


# ---------------------------------------------------------------------------
# Embedding near-dup (cosine)
# ---------------------------------------------------------------------------


def embedding_dup_pairs(
    ds: "ray.data.Dataset",
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    threshold: float = 0.95,
    n_tables: int = 4,
    bits: Optional[int] = None,
    n_buckets: Optional[int] = None,
    seed: int = 11,
    max_bucket: int = 4096,
    distributed: Optional[bool] = None,
    metrics=None,
) -> "ray.data.Dataset":
    """Near-dup pairs by embedding cosine ≥ threshold.

    Bucket keys pack the table id into the low ``ceil(log2(n_tables))``
    bits, so tables never alias into shared buckets at any ``n_tables``
    (aliasing was harmless for correctness — verify is exact — but merged
    buckets inflate the oversized-verify tail).

    Multi-table random-hyperplane LSH (banding, mirroring the minhash band
    structure): ``n_tables`` independent tables, each bucketing on ``bits``
    sign bits; a pair is a candidate if it collides in ANY table, and exact
    cosine verifies within the bucket. ``bits`` scales with corpus size
    (``None`` = one cheap ``count()`` then target ~``max_bucket``/16 rows
    per bucket) so buckets stay verifiable at any corpus size — the
    round-2 fixed 32-bucket design saturated past ~130k vectors. Recall is
    tunable: P[miss] = (1 − p_agree^bits)^n_tables with p_agree =
    1 − angle/π; raise ``n_tables`` for higher recall. Oversized buckets
    sub-split in projection order (``_chunked_verify``), never dropped.

    ``n_buckets`` is the legacy single-table knob: if given, it sets
    ``bits = log2(n_buckets)`` (rounded up).
    """
    if bits is None and n_buckets is not None:
        bits = max(1, int(np.ceil(np.log2(n_buckets))))
    if bits is None:
        # target mean bucket population well under the verify chunk size;
        # count() on the narrow projection is metadata-cheap for parquet
        n_rows = ds.count()
        target = max(max_bucket // 16, 16)
        bits = int(np.clip(np.ceil(np.log2(max(n_rows, 1) / target + 1)), 5, 24))
    ti_shift = max(1, (n_tables - 1).bit_length())

    class Bucketer:
        def __init__(self) -> None:
            self.planes: Optional[np.ndarray] = None  # (d, n_tables*bits)

        def __call__(self, t: pa.Table) -> pa.Table:
            emb = np.asarray(t[emb_col].combine_chunks().flatten()).reshape(
                t.num_rows, -1
            )
            if self.planes is None:
                rng = np.random.RandomState(seed)
                self.planes = rng.randn(emb.shape[1], n_tables * bits)
            proj = emb @ self.planes
            signs = proj > 0
            ids = t[id_col]
            parts = []
            w = np.int64(1) << np.arange(bits, dtype=np.int64)
            for ti in range(n_tables):
                s = signs[:, ti * bits : (ti + 1) * bits]
                key = (s.astype(np.int64) * w).sum(axis=1)
                # disjoint keyspace per table: low bits carry the table id,
                # width sized to n_tables so tables never alias
                key = (key << ti_shift) | ti
                # NARROW explosion — vectors do NOT ride the x n_tables
                # fan-out or the hot-stats shuffle; they are re-attached
                # for colliding ids only (``_attach_payload``)
                parts.append(
                    pa.table(
                        {
                            id_col: ids,
                            # locality scalar for oversized-bucket chunking:
                            # near-identical vectors project near-identically
                            "proj": pa.array(proj[:, ti * bits]),
                            "bucket": pa.array(key),
                        }
                    )
                )
            return pa.concat_tables(parts)

    _bucketer = Bucketer()  # planes derive lazily on first batch per worker

    bucketed = ds.select_columns([id_col, emb_col]).map_batches(
        _bucketer, batch_format="pyarrow", zero_copy_batch=True
    )

    def verify_small(group: pa.Table, aux=None) -> pa.Table:
        m = group.num_rows
        out_a, out_b, out_c = [], [], []
        if m >= 2:
            ids = np.array(group[id_col].to_pylist())
            emb = np.asarray(group[emb_col].combine_chunks().flatten()).reshape(m, -1)
            emb = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
            sims = emb @ emb.T
            iu = np.triu_indices(m, 1)
            mask = sims[iu] >= threshold
            for i, j, c in zip(iu[0][mask], iu[1][mask], sims[iu][mask]):
                a, b = int(ids[i]), int(ids[j])
                if a == b:
                    continue
                lo, hi = (a, b) if a < b else (b, a)
                out_a.append(lo)
                out_b.append(hi)
                out_c.append(float(c))
        return pa.table(
            {
                "id_a": pa.array(out_a, pa.int64()),
                "id_b": pa.array(out_b, pa.int64()),
                "cosine": pa.array(out_c, pa.float64()),
            }
        )

    empty = pa.table(
        {
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )
    verify = _chunked_verify(
        verify_small, empty, max_bucket,
        [("proj", "ascending"), (id_col, "ascending")], metrics,
    )

    # mirror the minhash dataflow: narrow (id, proj, bucket) rows drive the
    # hot-bucket stats and candidate filter; embeddings are attached
    # size-aware for colliding ids only, then verified per bucket
    import ray

    bucketed = bucketed.materialize()
    hot, n_hot, n_cand = _hot_buckets(bucketed)
    if n_hot == 0:
        return ray.data.from_arrow(empty)
    if distributed is None:
        distributed = n_cand > AUTO_DISTRIBUTED_THRESHOLD

    cands = _semi_join_hot(bucketed, hot, n_hot)
    joined = _attach_payload(
        cands, ds.select_columns([id_col, emb_col]), id_col, n_cand
    )
    if joined is None:
        return ray.data.from_arrow(empty)
    if distributed:
        pairs = _grouped_verify(joined, verify, empty, num_parts=_auto_parts(n_cand))
        return _distinct_pairs(pairs, empty)
    return _verify_one_block(joined, verify, empty)
