"""Scale-path guarantees of the dedup family (round-3 fixes).

Covers the three round-2 verdict findings:
1. hot-bucket stats are computed distributed (groupby, not a one-task
   merge) and the semi-join candidate path is equivalent to the broadcast
   membership filter;
2. oversized buckets are sub-split, never silently dropped — a
   pathological all-identical corpus still yields a CONNECTED duplicate
   cluster and the drop counter stays zero;
3. embedding LSH scales its bit-width with corpus size and uses
   multi-table banding, so planted pairs are still found on a corpus far
   beyond the old fixed-32-bucket design's breaking point.
"""

import numpy as np
import pyarrow as pa
import pytest

import sqlgrep_ray.stages.dedup as dd
from sqlgrep_ray.state.metrics import MetricsCollector


def _identical_corpus(n: int) -> pa.Table:
    text = "all these documents are byte for byte identical duplicates of one another"
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array([text] * n, pa.string()),
        }
    )


def _components(pairs) -> dict[int, int]:
    """Union-find over the pair list → node → root."""
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def test_minhash_semi_join_path_equivalence(ray_session, monkeypatch):
    """Forcing the distributed hot-set semi-join (HOT_BROADCAST_MAX=0)
    must give the same pairs as the broadcast membership filter."""
    import ray.data

    rng = np.random.RandomState(3)
    words = [f"w{i}" for i in range(50)]
    texts = []
    for i in range(40):
        texts.append(" ".join(rng.choice(words, 12)))
    texts += [texts[0], texts[5] + " extra"]  # planted exact + near dup
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )
    ds = ray.data.from_arrow(t)
    base = dd.minhash_lsh_dedup(ds, threshold=0.7).to_pandas()
    monkeypatch.setattr(dd, "HOT_BROADCAST_MAX", 0)
    joined = dd.minhash_lsh_dedup(ds, threshold=0.7, distributed=True).to_pandas()
    key = lambda df: sorted(zip(df["id_a"], df["id_b"]))
    assert key(base) == key(joined)
    assert (0, 40) in key(base)


@pytest.mark.parametrize("distributed", [False, True])
def test_oversized_bucket_subsplit_all_identical(ray_session, distributed):
    """Pathological all-identical corpus with max_bucket far below the
    bucket population: pairs are still found, the duplicate cluster stays
    CONNECTED (one component spanning every doc), nothing is dropped."""
    import ray.data

    n = 60
    ds = ray.data.from_arrow(_identical_corpus(n))
    mc = MetricsCollector.create()
    pairs = dd.minhash_lsh_dedup(
        ds, threshold=0.9, max_bucket=16, distributed=distributed, metrics=mc
    ).to_pandas()
    assert len(pairs) > 0
    comp = _components(pairs)
    assert set(comp) == set(range(n))  # every doc participates
    assert len(set(comp.values())) == 1  # ... in ONE connected cluster
    counters = mc.snapshot()["counters"]
    assert counters.get("dedup.oversized_buckets", 0) > 0
    assert counters.get("dedup.dropped_rows", 0) == 0


def test_simhash_oversized_subsplit(ray_session):
    import ray.data

    n = 50
    ds = ray.data.from_arrow(_identical_corpus(n))
    mc = MetricsCollector.create()
    pairs = dd.simhash_dedup(
        ds, id_col="doc_id", max_hamming=3, max_bucket=8, metrics=mc
    ).to_pandas()
    comp = _components(pairs)
    assert set(comp) == set(range(n))
    assert len(set(comp.values())) == 1
    counters = mc.snapshot()["counters"]
    assert counters.get("dedup.oversized_buckets", 0) > 0


def test_embedding_oversized_subsplit(ray_session):
    """All-identical vectors land in one bucket per table; sub-splitting
    must still connect the whole cluster."""
    import ray.data

    n = 40
    vec = np.arange(16, dtype=np.float32) + 1.0
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array([vec.tolist()] * n, pa.list_(pa.float32())),
        }
    )
    mc = MetricsCollector.create()
    pairs = dd.embedding_dup_pairs(
        ray.data.from_arrow(t), threshold=0.99, bits=3, max_bucket=8, metrics=mc
    ).to_pandas()
    comp = _components(pairs)
    assert set(comp) == set(range(n))
    assert len(set(comp.values())) == 1
    counters = mc.snapshot()["counters"]
    assert counters.get("dedup.oversized_buckets", 0) > 0


def test_embedding_lsh_scales_to_200k(ray_session):
    """200k vectors — far past the old 32-bucket design's ~130k breaking
    point (where every bucket blew the verify cap and the operator
    silently found nothing). Planted near-identical pairs must be found."""
    import ray.data

    rng = np.random.RandomState(7)
    n, d = 200_000, 16
    base = rng.randn(n, d).astype(np.float32)
    # plant 20 near-duplicates of rows 0..19 at ids n..n+19
    planted = base[:20] * 1.0001
    vecs = np.vstack([base, planted])
    ids = np.arange(len(vecs), dtype=np.int64)
    t = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(vecs.reshape(-1)), d
            ),
        }
    )
    pairs = dd.embedding_dup_pairs(
        ray.data.from_arrow(t), threshold=0.9999
    ).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    found = sum((i, n + i) in got for i in range(20))
    # multi-table banding: miss probability per planted pair is tiny;
    # require ≥ 18/20 to keep the test robust to the fixed-seed planes
    assert found >= 18, f"only {found}/20 planted pairs found"


def test_hot_stats_groupby_path_equivalence(ray_session, monkeypatch):
    """Forcing the bucketed stats merge (the merge gate's bound at 0) must
    give the same pairs as the driver-side small merge."""
    import ray.data

    from sqlgrep_ray.stages import exchange

    ds = ray.data.from_arrow(_identical_corpus(30))
    base = dd.minhash_lsh_dedup(ds, threshold=0.9).to_pandas()
    monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 0)
    big = dd.minhash_lsh_dedup(ds, threshold=0.9).to_pandas()
    key = lambda df: sorted(zip(df["id_a"], df["id_b"]))
    assert key(base) == key(big)
    assert len(base) == 30 * 29 // 2


def test_text_broadcast_vs_join_equivalence(ray_session, monkeypatch):
    """The distributed verify attaches candidate text by broadcast +
    searchsorted when it fits the budget; forcing the hash-join fallback
    (TEXT_BROADCAST_MAX_BYTES=0) must give identical pairs."""
    import ray.data

    rng = np.random.RandomState(11)
    words = [f"w{i}" for i in range(80)]
    texts = [" ".join(rng.choice(words, 15)) for _ in range(60)]
    texts += [texts[i] + " tail" for i in range(10)]  # planted near-dups
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )
    ds = ray.data.from_arrow(t)
    bcast = dd.minhash_lsh_dedup(ds, threshold=0.8, distributed=True).to_pandas()
    monkeypatch.setattr(dd, "TEXT_BROADCAST_MAX_BYTES", 0)
    joined = dd.minhash_lsh_dedup(ds, threshold=0.8, distributed=True).to_pandas()
    key = lambda df: sorted(zip(df["id_a"], df["id_b"]))
    assert key(bcast) == key(joined)
    assert all((i, 60 + i) in key(bcast) for i in range(10))


def test_hot_semi_join_and_payload_branches_agree(ray_session, monkeypatch):
    """HOT_BROADCAST_MAX=0 routes the hot-set semi-join and the payload
    attach through ``enrich.shuffle_join``; both keep the broadcast rows
    on a NULL bucket key and a list-typed embedding column."""
    import ray.data

    bucketed = pa.table(
        {
            "bucket": pa.array([5, None, 7, 5, 9, None], pa.int64()),
            "doc_id": pa.array(np.arange(6, dtype=np.int64)),
            "emb": pa.array(
                [[float(i), 0.0] for i in range(6)], pa.list_(pa.float32())
            ),
        }
    )
    hot = pa.table({"bucket": pa.array([5, None], pa.int64())})
    payload = pa.table(
        {
            "doc_id": pa.array(np.arange(6, dtype=np.int64)),
            "vec": pa.array([[i, i] for i in range(6)], pa.list_(pa.int64())),
        }
    )

    def run():
        cands = dd._semi_join_hot(
            ray.data.from_arrow([bucketed.slice(0, 3), bucketed.slice(3)]),
            ray.data.from_arrow(hot), 2,
        )
        joined = dd._attach_payload(
            cands, ray.data.from_arrow(payload), "doc_id", 4
        )
        return sorted(
            (r["doc_id"], repr(r["bucket"]), list(r["emb"]), list(r["vec"]))
            for r in joined.take_all()
        )

    small = run()
    monkeypatch.setattr(dd, "HOT_BROADCAST_MAX", 0)
    large = run()
    assert small == large
    assert [r[0] for r in small] == [0, 1, 3, 5]
