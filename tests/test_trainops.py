"""Training-data operators: dedup, textstats, similarity, multimodal."""

import numpy as np
import pyarrow as pa
import pytest

from sqlgrep_ray.stages.dedup import (
    MinHasher,
    SimHasher,
    embedding_dup_pairs,
    exact_dedup,
    jaccard_tokens,
    minhash_lsh_dedup,
    simhash_dedup,
)
from sqlgrep_ray.stages.multimodal import decode_featurize, synth_media
from sqlgrep_ray.stages.similarity import knn_brute_force, knn_ivf
from sqlgrep_ray.stages.textstats import (
    TextStats,
    detect_language,
    fingerprint64,
    text_stats,
)

BASE = "the quick brown fox jumps over the lazy dog while the cat sleeps on the warm mat near the door"


def _doc_table():
    texts = [
        BASE,
        BASE + " today",  # near-dup of 0
        "completely different content about ray data pipelines and arrow batches for processing",
        BASE,  # exact dup of 0
        "a short one",
        "der hund läuft durch die stadt und die kinder spielen auf der wiese in dem schönen park",
    ]
    return pa.table(
        {
            "doc_id": pa.array(list(range(len(texts))), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )


def test_exact_dedup(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_doc_table()).map_batches(
        lambda t: t.append_column(
            "fp", pa.array([fingerprint64(x) for x in t["text"].to_pylist()], pa.int64())
        ),
        batch_format="pyarrow",
    )
    out = exact_dedup(ds, key="fp", id_col="doc_id").to_pandas()
    # 6 docs, one exact dup (id 3 == id 0) → 5 survivors, winner is min id
    assert len(out) == 5
    assert 0 in set(out["doc_id"]) and 3 not in set(out["doc_id"])


def test_minhash_lsh_finds_near_dups(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_doc_table())
    pairs = minhash_lsh_dedup(ds, threshold=0.7).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (0, 3) in got  # exact dup
    assert (0, 1) in got  # near dup
    assert all(a < b for a, b in got)
    # no cross-content false positives
    assert not any(2 in p for p in got)


def test_minhash_estimates_jaccard():
    mh = MinHasher(n_perm=256)
    s1, s2 = mh.signature(BASE), mh.signature(BASE + " today")
    est = (s1 == s2).mean()
    true = jaccard_tokens(BASE, BASE + " today")
    assert abs(est - true) < 0.15


def test_simhash_dedup(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_doc_table())
    pairs = simhash_dedup(ds, max_hamming=3).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (0, 3) in got
    assert not any(2 in p and 4 in p for p in got)


def test_embedding_dup_pairs(ray_session):
    import ray.data

    rng = np.random.RandomState(0)
    base = rng.randn(8, 16).astype(np.float32)
    vecs = np.vstack([base, base[0] + rng.randn(16) * 0.01])  # id 8 ≈ id 0
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(9, dtype=np.int64)),
            "embedding": pa.array(
                [v.tolist() for v in vecs], pa.list_(pa.float32())
            ),
        }
    )
    pairs = embedding_dup_pairs(
        ray.data.from_arrow(t), threshold=0.99, n_buckets=4
    ).to_pandas()
    assert (0, 8) in set(zip(pairs["id_a"], pairs["id_b"]))


def test_embedding_dup_pairs_many_tables(ray_session):
    """n_tables > 8 must not alias table keyspaces (ADVICE r3: the old
    fixed 3-bit table-id packing merged tables 8+ into tables 0+): the
    planted near-dup is still found and nothing blows up."""
    import ray.data

    rng = np.random.RandomState(3)
    base = rng.randn(12, 16).astype(np.float32)
    vecs = np.vstack([base, base[2] + rng.randn(16) * 0.005])  # id 12 ≈ id 2
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(13, dtype=np.int64)),
            "embedding": pa.array(
                [v.tolist() for v in vecs], pa.list_(pa.float32())
            ),
        }
    )
    pairs = embedding_dup_pairs(
        ray.data.from_arrow(t), threshold=0.99, n_tables=10, bits=4
    ).to_pandas()
    assert (2, 12) in set(zip(pairs["id_a"], pairs["id_b"]))


def test_language_id():
    assert detect_language("the cat is on the mat and it is warm in the house") == "en"
    assert detect_language("der hund und die katze spielen in dem schönen garten") == "de"
    assert detect_language("1234 9999 ///") == "und"
    assert detect_language("") == "und"
    assert detect_language(None) == "und"


def test_textstats_columns(ray_session):
    import ray.data

    out = text_stats(ray.data.from_arrow(_doc_table())).to_pandas()
    assert {"n_tokens_ws", "n_tokens_bpe", "quality_score", "lang_pred",
            "fingerprint", "alpha_ratio", "punct_ratio", "stopword_ratio"} <= set(out.columns)
    r0 = out[out.doc_id == 0].iloc[0]
    assert r0["n_tokens_ws"] == len(BASE.split())
    assert r0["lang_pred"] == "en"
    r5 = out[out.doc_id == 5].iloc[0]
    assert r5["lang_pred"] == "de"
    # exact dup rows share fingerprints; near-dups don't
    fp = dict(zip(out.doc_id, out.fingerprint))
    assert fp[0] == fp[3] and fp[0] != fp[1]
    assert (out.quality_score >= 0).all() and (out.quality_score <= 1).all()


def test_fingerprint_normalizes_whitespace_and_case():
    assert fingerprint64("Hello   World") == fingerprint64("hello world")
    assert fingerprint64("hello world") != fingerprint64("hello worlds")


def _emb_fixture():
    rng = np.random.RandomState(1)
    X = rng.randn(200, 32).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(200, dtype=np.int64)),
            "embedding": pa.array([v.tolist() for v in X], pa.list_(pa.float32())),
        }
    )
    Q = X[[5, 77]] + rng.randn(2, 32).astype(np.float32) * 0.05
    queries = pa.table(
        {
            "query_id": pa.array([0, 1], pa.int64()),
            "embedding": pa.array([v.tolist() for v in Q], pa.list_(pa.float32())),
        }
    )
    return X, Q, t, queries


def test_knn_brute_force_matches_numpy_oracle(ray_session):
    import ray.data

    X, Q, t, queries = _emb_fixture()
    out = knn_brute_force(
        ray.data.from_arrow(t), queries, k=5
    ).to_pandas()
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    sims = Qn @ Xn.T
    for q in (0, 1):
        expect = set(np.argsort(-sims[q])[:5])
        got = set(out[out.query_id == q]["vec_id"])
        assert got == expect
        # nearest neighbour of the perturbed query is its source vector
        top1 = out[out.query_id == q].sort_values("score", ascending=False).iloc[0]
        assert top1["vec_id"] == (5 if q == 0 else 77)


def test_knn_ivf_recall(ray_session):
    import ray.data

    X, Q, t, queries = _emb_fixture()
    exact = knn_brute_force(ray.data.from_arrow(t), queries, k=5).to_pandas()
    approx = knn_ivf(
        ray.data.from_arrow(t), queries, k=5, n_centroids=8, n_probe=4
    ).to_pandas()
    for q in (0, 1):
        e = set(exact[exact.query_id == q]["vec_id"])
        a = set(approx[approx.query_id == q]["vec_id"])
        assert len(e & a) / len(e) >= 0.6  # probabilistic recall bound


def test_multimodal_plumbing(ray_session):
    import ray.data

    media = synth_media(40)
    out = decode_featurize(ray.data.from_arrow(media), batch_size=8).to_pandas()
    assert len(out) == 40
    img = out[out.media_type == "image"]
    aud = out[out.media_type == "audio"]
    assert img["img_mean"].notna().all() and img["rms"].isna().all()
    assert aud["rms"].notna().all() and aud["img_mean"].isna().all()
    # histogram is a fixed 8-bin distribution
    assert all(len(h) == 8 for h in img["img_hist"])
    assert all(abs(sum(h) - 1.0) < 1e-9 for h in img["img_hist"])
    # deterministic: same payload → same features
    out2 = decode_featurize(ray.data.from_arrow(media), batch_size=16).to_pandas()
    m1 = out.sort_values("media_id")["img_mean"].fillna(-1).to_numpy()
    m2 = out2.sort_values("media_id")["img_mean"].fillna(-1).to_numpy()
    assert np.allclose(m1, m2)


def test_dedup_distributed_path_equivalence(ray_session):
    """distributed=True (shuffle verify) must produce the same pair SET as
    the local single-task verify, for all three near-dup families."""
    import ray.data

    ds = ray.data.from_arrow(_doc_table())
    local = minhash_lsh_dedup(ds, threshold=0.7, distributed=False).to_pandas()
    dist = minhash_lsh_dedup(ds, threshold=0.7, distributed=True).to_pandas()
    assert set(zip(local["id_a"], local["id_b"])) == set(
        zip(dist["id_a"], dist["id_b"])
    ) != set()

    local = simhash_dedup(ds, max_hamming=3, distributed=False).to_pandas()
    dist = simhash_dedup(ds, max_hamming=3, distributed=True).to_pandas()
    assert set(zip(local["id_a"], local["id_b"])) == set(
        zip(dist["id_a"], dist["id_b"])
    ) != set()

    rng = np.random.RandomState(0)
    base = rng.randn(8, 16).astype(np.float32)
    vecs = np.vstack([base, base[0] + rng.randn(16) * 0.01])
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(9, dtype=np.int64)),
            "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
        }
    )
    eds = ray.data.from_arrow(t)
    local = embedding_dup_pairs(eds, threshold=0.99, n_buckets=4, distributed=False).to_pandas()
    dist = embedding_dup_pairs(eds, threshold=0.99, n_buckets=4, distributed=True).to_pandas()
    assert set(zip(local["id_a"], local["id_b"])) == set(
        zip(dist["id_a"], dist["id_b"])
    ) != set()


def test_minhash_auto_distributed_switch(ray_session):
    """auto_threshold=0 forces the distributed path through the public API
    (candidate count > 0 ⇒ auto-select shuffle verify) — same result."""
    import ray.data

    ds = ray.data.from_arrow(_doc_table())
    auto = minhash_lsh_dedup(ds, threshold=0.7, auto_threshold=0).to_pandas()
    assert (0, 3) in set(zip(auto["id_a"], auto["id_b"]))


def test_grouped_topk_distributed_equivalence(ray_session):
    """Key-hash bucketed merge (distributed=True) returns the same row SET
    as the single-block merge for grouped top-k."""
    import ray.data
    from sqlgrep_ray.stages.topk import grouped_topk

    rng = np.random.RandomState(3)
    t = pa.table(
        {
            "g": pa.array([f"g{i % 37}" for i in range(4000)]),
            "score": pa.array(rng.randint(0, 1000, 4000), pa.int64()),
            "id": pa.array(range(4000), pa.int64()),
        }
    )
    kw = dict(keys=["g"], score_col="score", tie_col="id", k=3)
    local = grouped_topk(ray.data.from_arrow(t).repartition(6), distributed=False, **kw).to_pandas()
    dist = grouped_topk(ray.data.from_arrow(t).repartition(6), distributed=True, **kw).to_pandas()
    key = lambda df: sorted(map(tuple, df[["g", "score", "id"]].itertuples(index=False)))
    assert key(local) == key(dist)
    assert len(local) == 37 * 3


def test_duplicate_ngram_stats(ray_session):
    """dup-gram occurrence accounting: the exact-dup doc pair shares every
    gram; unique docs have zero duplicated grams."""
    import ray.data
    from sqlgrep_ray.stages.textdup import duplicate_ngram_stats

    out = (
        duplicate_ngram_stats(ray.data.from_arrow(_doc_table()), k=3)
        .to_pandas()
        .set_index("doc_id")
    )
    # doc 0 and doc 3 are identical → every gram duplicated
    n0 = len(BASE.split()) - 2
    assert out.loc[0, "total_grams"] == n0
    assert out.loc[0, "dup_grams"] == n0
    assert out.loc[3, "dup_grams"] == n0
    # doc 1 = BASE + " today": shares all but the trailing window's grams
    assert 0 < out.loc[1, "dup_grams"] < out.loc[1, "total_grams"]
    # unrelated docs: nothing duplicated
    assert out.loc[2, "dup_grams"] == 0
    assert out.loc[5, "dup_grams"] == 0
    # short doc (< k tokens) contributes exactly one whole-sequence gram
    assert out.loc[4, "total_grams"] == 1


def test_duplicate_ngram_stats_path_equivalence(ray_session, monkeypatch):
    """Forcing the bucketed dataflow (the merge gate's bound at 0) must
    match the driver-side merge exactly."""
    import ray.data
    import sqlgrep_ray.stages.textdup as td
    from sqlgrep_ray.stages import exchange

    ds = ray.data.from_arrow(_doc_table())
    local = td.duplicate_ngram_stats(ds, k=3).to_pandas()
    monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 0)
    dist = td.duplicate_ngram_stats(ds, k=3).to_pandas()
    key = lambda df: sorted(
        map(tuple, df[["doc_id", "dup_grams", "total_grams"]].itertuples(index=False))
    )
    assert key(local) == key(dist)
