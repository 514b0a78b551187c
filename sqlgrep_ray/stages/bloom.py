"""Bloom-filter membership: distributed build, broadcast probe, exact verify.

The 100-TB decontamination pattern. The KEY side (test set, blocklist,
already-seen ids) compiles into a fixed-size bitmap that is broadcast
once via ``ray.put`` — constant bytes per worker regardless of key
count (1e9 keys at 1% FPP ≈ 1.2 GiB, where the exact key set would be
many times that) — and the CORPUS side probes it vectorized per batch.
Bloom hits are then EXACT-verified, so the result is exact: the bloom
only prunes the expensive verify down to candidates (true matches plus
an ``fpp`` fraction of the corpus).

Build is distributed: each key block folds into its own bitmap and the
driver ORs the per-block bitmaps (bounded: ``n_bits ≤ BLOOM_MAX_BITS``;
beyond that a slice-partitioned build — shuffle hash values by bit
range so each task owns a bitmap slice — is the scale path, not needed
while the bitmap itself must fit one worker to be probed anyway).

No reference counterpart (sqlgrep has no approximate structures); the
method is the classic Bloom 1970 filter with Kirsch-Mitzenmacher
double hashing (h1 + i*h2).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

if TYPE_CHECKING:  # pragma: no cover
    import ray

BLOOM_MAX_BITS = 1 << 33  # 1 GiB bitmap ceiling for one broadcast object
EXACT_BROADCAST_MAX = 5_000_000  # keys; above → distributed semi-join verify
_H1_KEY = "bloom-h1-0123456"  # hash_pandas_object wants 16-byte keys
_H2_KEY = "bloom-h2-6543210"


def _canon(col: "pa.ChunkedArray | pa.Array") -> pd.Series:
    """Canonical pandas view for hashing: strings hash as-is, everything
    else through its Arrow string form — same contract as
    ``exchange.bucket_ids`` (an int64 column with nulls must not decay to
    float64 and change hashes block-to-block)."""
    if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
        col = pc.cast(col, pa.string())
    return col.to_pandas()


def _hash2(col) -> tuple[np.ndarray, np.ndarray]:
    s = _canon(col)
    h1 = pd.util.hash_pandas_object(s, index=False, hash_key=_H1_KEY).to_numpy()
    h2 = pd.util.hash_pandas_object(s, index=False, hash_key=_H2_KEY).to_numpy()
    return h1, np.bitwise_or(h2, np.uint64(1))  # odd h2: no degenerate stride


def bloom_params(n_keys: int, fpp: float = 0.01) -> tuple[int, int]:
    """(n_bits, k) sized for ``n_keys`` at target false-positive rate."""
    n_keys = max(1, n_keys)
    n_bits = int(math.ceil(-n_keys * math.log(fpp) / (math.log(2) ** 2)))
    n_bits = max(64, (n_bits + 63) & ~63)  # whole uint64 words
    if n_bits > BLOOM_MAX_BITS:
        raise ValueError(
            f"bloom of {n_keys} keys at fpp={fpp} needs {n_bits} bits "
            f"> BLOOM_MAX_BITS ({BLOOM_MAX_BITS}); raise fpp or partition"
        )
    k = max(1, round(n_bits / n_keys * math.log(2)))
    return n_bits, min(k, 16)


def _set_bits(bm: np.ndarray, h1: np.ndarray, h2: np.ndarray, k: int, n_bits: int) -> None:
    nb = np.uint64(n_bits)
    for i in range(k):
        idx = (h1 + np.uint64(i) * h2) % nb
        np.bitwise_or.at(bm, (idx >> np.uint64(6)).astype(np.int64), np.uint64(1) << (idx & np.uint64(63)))


def _test_bits(bm: np.ndarray, h1: np.ndarray, h2: np.ndarray, k: int, n_bits: int) -> np.ndarray:
    nb = np.uint64(n_bits)
    mask = np.ones(len(h1), dtype=bool)
    for i in range(k):
        idx = (h1 + np.uint64(i) * h2) % nb
        word = bm[(idx >> np.uint64(6)).astype(np.int64)]
        mask &= (word >> (idx & np.uint64(63))) & np.uint64(1) != 0
    return mask


def build_bloom(
    keys: "ray.data.Dataset",
    key_col: str,
    n_keys: Optional[int] = None,
    fpp: float = 0.01,
) -> tuple[np.ndarray, int, int]:
    """Distributed build: per-block bitmaps OR-merged on the driver.
    Returns ``(bitmap_words, n_bits, k)``. The driver merge is bounded by
    the bitmap size (≤ BLOOM_MAX_BITS/8 bytes per block row)."""
    if n_keys is None:
        n_keys = keys.count()
    n_bits, k = bloom_params(n_keys, fpp)
    n_words = n_bits // 64

    def block(t: pa.Table) -> pa.Table:
        col = t[key_col]
        col = col.drop_null() if col.null_count else col
        bm = np.zeros(n_words, dtype=np.uint64)
        if len(col):
            h1, h2 = _hash2(col)
            _set_bits(bm, h1, h2, k, n_bits)
        return pa.table({"bm": pa.array([bm.tobytes()], pa.binary())})

    acc = np.zeros(n_words, dtype=np.uint64)
    parts = keys.select_columns([key_col]).map_batches(
        block, batch_format="pyarrow", zero_copy_batch=True
    )
    for t in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        for buf in t["bm"].to_pylist():
            np.bitwise_or(acc, np.frombuffer(buf, np.uint64), out=acc)
    return acc, n_bits, k


def bloom_semi_join(
    corpus: "ray.data.Dataset",
    keys: "ray.data.Dataset",
    col: str,
    key_col: Optional[str] = None,
    keep: bool = True,
    fpp: float = 0.01,
    broadcast_max: int = EXACT_BROADCAST_MAX,
) -> "ray.data.Dataset":
    """EXACT semi- (``keep=True``) or anti- (``keep=False``) join of
    ``corpus`` against the key set, bloom-accelerated.

    A row passes the semi-join iff ``corpus.col`` appears in
    ``keys.key_col`` (NULL never matches — reference NULL⇒false
    comparison semantics). The bitmap prunes definite misses per batch;
    bloom hits are exact-verified, by a broadcast ``is_in`` when the key
    count fits ``broadcast_max``, else by a key-bucketed semi-join
    (``enrich.shuffle_join``) over the candidates only. The anti-join's
    large-key path anti-joins the corpus against the verified hits
    (bounded by matches + fpp·|corpus|) — the corpus upstream is consumed
    twice there; below ``broadcast_max`` both modes are single-pass."""
    import ray

    key_col = key_col or col
    n_keys = keys.count()
    if n_keys == 0:
        if keep:
            return corpus.map_batches(
                lambda t: t.slice(0, 0), batch_format="pyarrow",
                zero_copy_batch=True,
            )
        return corpus

    bm, n_bits, k = build_bloom(keys, key_col, n_keys=n_keys, fpp=fpp)
    bm_ref = ray.put(bm)

    def probe(t: pa.Table, bm_ref=None) -> pa.Table:
        b = ray.get(bm_ref) if isinstance(bm_ref, ray.ObjectRef) else bm_ref
        col_arr = t[col]
        h1, h2 = _hash2(col_arr)
        cand = _test_bits(b, h1, h2, k, n_bits)
        if col_arr.null_count:
            cand &= pc.is_valid(col_arr).combine_chunks().to_numpy(
                zero_copy_only=False
            )
        return t.filter(pa.array(cand))

    if n_keys <= broadcast_max:
        # single pass: bloom prune + broadcast exact verify per batch
        from sqlgrep_ray.pipelines.curate import _collect_ids

        ids_ref = ray.put(_collect_ids(keys, key_col))

        def one_pass(t: pa.Table, bm_ref=None, ids_ref=None) -> pa.Table:
            b = ray.get(bm_ref) if isinstance(bm_ref, ray.ObjectRef) else bm_ref
            vs = ray.get(ids_ref) if isinstance(ids_ref, ray.ObjectRef) else ids_ref
            col_arr = t[col]
            h1, h2 = _hash2(col_arr)
            cand = _test_bits(b, h1, h2, k, n_bits)
            if col_arr.null_count:
                cand &= pc.is_valid(col_arr).combine_chunks().to_numpy(
                    zero_copy_only=False
                )
            hit = np.zeros(t.num_rows, dtype=bool)
            if cand.any():
                # exact check ONLY the bloom candidates
                idx = np.flatnonzero(cand)
                sub = col_arr.take(pa.array(idx))
                hit[idx] = pc.is_in(sub, value_set=vs).to_numpy(
                    zero_copy_only=False
                )
            return t.filter(pa.array(hit if keep else ~hit))

        return corpus.map_batches(
            one_pass,
            fn_kwargs=dict(bm_ref=bm_ref, ids_ref=ids_ref),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    # large key set: candidates stream through a key-bucketed verify
    from sqlgrep_ray.stages.enrich import shuffle_join

    cands = corpus.map_batches(
        probe, fn_kwargs=dict(bm_ref=bm_ref), batch_format="pyarrow",
        zero_copy_batch=True,
    )
    hits = shuffle_join(
        cands, keys.select_columns([key_col]), [col], [key_col], how="semi"
    )
    if keep:
        return hits
    # anti: verified hits (bounded by matches + fpp·|corpus|) then corpus
    # minus hits — the corpus upstream is consumed twice in this regime
    return shuffle_join(corpus, hits.select_columns([col]), [col], how="anti")
