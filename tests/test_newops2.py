"""Round-2 additions, part 2: SemDeDup, Misra-Gries heavy hitters,
sequence packing."""

import numpy as np
import pyarrow as pa


def _emb_ds(vectors, ids=None):
    import ray.data

    ids = ids if ids is not None else list(range(len(vectors)))
    return ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [np.asarray(v, dtype=np.float32) for v in vectors]
                ),
            }
        )
    )


# ---------------------------------------------------------------------------
# SemDeDup
# ---------------------------------------------------------------------------


def test_semdedup_pairs_within_cluster(ray_session):
    from sqlgrep_ray.stages.semdedup import semdedup, semdedup_pairs

    rng = np.random.default_rng(3)
    # two far-apart clusters; ids 0/1 are near-identical in cluster A,
    # ids 20/21 near-identical in cluster B, the rest scattered
    a = [np.array([100.0, 0.0]) + rng.normal(0, 5.0, 2) for _ in range(18)]
    b = [np.array([-100.0, 0.0]) + rng.normal(0, 5.0, 2) for _ in range(18)]
    a[0] = np.array([100.0, 1.0])
    a[1] = a[0] * 1.001  # same direction -> cosine 1.0
    b[0] = np.array([-100.0, 2.0])
    b[1] = b[0] * 0.999
    vecs = a + b
    ds = _emb_ds(vecs, ids=list(range(18)) + list(range(20, 38)))
    pairs = semdedup_pairs(ds, k=2, threshold=0.99999, n_iter=6).take_all()
    got = {(r["id_a"], r["id_b"]) for r in pairs}
    assert (0, 1) in got and (20, 21) in got
    # survivors: the min-id winner of each dup pair stays
    kept = {r["vec_id"] for r in semdedup(ds, k=2, threshold=0.99999).take_all()}
    assert 0 in kept and 1 not in kept
    assert 20 in kept and 21 not in kept
    assert len(kept) == 36 - len({b for _, b in got})


def test_semdedup_cross_cluster_blindness(ray_session):
    from sqlgrep_ray.stages.semdedup import semdedup_pairs

    # identical vectors forced into different clusters never pair — the
    # documented recall trade-off: with k=n and wide separation each point
    # is its own cluster
    vecs = [[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0], [0.0, -10.0]]
    ds = _emb_ds(vecs)
    pairs = semdedup_pairs(ds, k=4, threshold=0.5, n_iter=4).take_all()
    assert pairs == []


def test_semdedup_large_path_equivalence(ray_session, monkeypatch):
    import sqlgrep_ray.pipelines.curate as curate_mod
    from sqlgrep_ray.stages.semdedup import semdedup

    vecs = [[1.0, 0.0], [1.0, 0.0001], [0.0, 1.0], [0.0, 1.0001], [1.0, 1.0]]
    ds = _emb_ds(vecs)
    small = sorted(
        r["vec_id"] for r in semdedup(ds, k=1, threshold=0.9999, n_iter=2).take_all()
    )
    monkeypatch.setattr(curate_mod, "BROADCAST_IDS_MAX", 0)
    large = sorted(
        r["vec_id"] for r in semdedup(ds, k=1, threshold=0.9999, n_iter=2).take_all()
    )
    assert small == large == [0, 2, 4]
    # embeddings survive the pack/join/unpack round-trip
    monkey_rows = semdedup(ds, k=1, threshold=0.9999, n_iter=2).take_all()
    got = {r["vec_id"]: list(np.asarray(r["embedding"])) for r in monkey_rows}
    assert got[4] == [1.0, 1.0]


# ---------------------------------------------------------------------------
# Misra-Gries
# ---------------------------------------------------------------------------


def test_heavy_hitters_guarantee(ray_session):
    import ray.data

    from sqlgrep_ray.stages.sketch import heavy_hitters

    # zipf-ish: item i appears 2000 // (i + 1) times
    items = []
    for i in range(400):
        items.extend([f"it-{i:03d}"] * (2000 // (i + 1)))
    n = len(items)
    rng = np.random.default_rng(11)
    rng.shuffle(items)
    ds = ray.data.from_arrow(
        pa.table({"v": pa.array(items)})
    ).repartition(8)
    k = 64
    out = heavy_hitters(ds, "v", k=k).take_all()
    est = {r["item"]: r["count"] for r in out}
    true = {f"it-{i:03d}": 2000 // (i + 1) for i in range(400)}
    bound = n / (k + 1)
    for item, cnt in true.items():
        if cnt > bound:
            assert item in est, f"{item} (freq {cnt} > {bound}) missing"
        if item in est:
            assert est[item] <= cnt  # lower bound
            assert est[item] >= cnt - bound


def test_heavy_tokens(ray_session):
    import ray.data

    from sqlgrep_ray.stages.sketch import heavy_tokens

    ds = ray.data.from_arrow(
        pa.table({"text": pa.array(["a a a b", "A b c", None])})
    )
    out = heavy_tokens(ds, k=10).take_all()
    assert {r["item"]: r["count"] for r in out} == {"a": 4, "b": 2, "c": 1}
    assert out[0]["item"] == "a"  # sorted by count desc


# ---------------------------------------------------------------------------
# sequence packing
# ---------------------------------------------------------------------------


def test_pack_sequences_next_fit(ray_session):
    import ray.data

    from sqlgrep_ray.stages.pack import pack_sequences

    t = pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 13, 14, 15], pa.int64()),
            "n_tokens": pa.array([400, 500, 200, 1500, 100, 900], pa.int64()),
        }
    )
    out = pack_sequences(ray.data.from_arrow(t), budget=1000).take_all()
    bins = {r["doc_id"]: r["bin_id"] for r in out}
    # 400+500 fit; +200 would exceed -> new bin; 1500 overflows alone;
    # 100+900 fit together
    assert bins == {10: 10, 11: 10, 12: 12, 13: 13, 14: 14, 15: 14}
    # invariant: no bin except oversize singletons exceeds budget
    from collections import defaultdict

    tot = defaultdict(int)
    for r in out:
        tot[r["bin_id"]] += r["n_tokens"]
    for b, s in tot.items():
        members = [r for r in out if r["bin_id"] == b]
        assert s <= 1000 or len(members) == 1


# ---------------------------------------------------------------------------
# grouped sample
# ---------------------------------------------------------------------------


def test_grouped_sample_deterministic(ray_session):
    import ray.data

    from sqlgrep_ray.stages.sample import grouped_sample

    t = pa.table(
        {
            "doc_id": pa.array(range(100), pa.int64()),
            "grp": pa.array(["a" if i % 2 else "b" for i in range(100)]),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    r1 = sorted(
        (r["grp"], r["doc_id"])
        for r in grouped_sample(ds, keys=["grp"], id_col="doc_id", k=5).take_all()
    )
    r2 = sorted(
        (r["grp"], r["doc_id"])
        for r in grouped_sample(ds, keys=["grp"], id_col="doc_id", k=5).take_all()
    )
    assert r1 == r2 and len(r1) == 10
    # python reference: 5 smallest knuth-hashes per group
    ref = []
    for g in ("a", "b"):
        ids = [i for i in range(100) if ("a" if i % 2 else "b") == g]
        ids.sort(key=lambda i: ((i * 2654435761) % (1 << 32), i))
        ref += [(g, i) for i in ids[:5]]
    assert r1 == sorted(ref)


# ---------------------------------------------------------------------------
# multimodal resize / frame-sample
# ---------------------------------------------------------------------------


def test_resize_images_nearest_neighbor(ray_session):
    import ray.data

    from sqlgrep_ray.stages.multimodal import (
        FakeCodec,
        ResizeImages,
        resize_images,
        synth_media,
    )

    media = synth_media(60)
    out = resize_images(ray.data.from_arrow(media), target=8).take_all()
    codec = FakeCodec()
    by_id = {r["media_id"]: r for r in out}
    checked = 0
    for i in range(media.num_rows):
        mt = media["media_type"][i].as_py()
        r = by_id[media["media_id"][i].as_py()]
        if mt == "image":
            assert r["width"] == 8 and r["height"] == 8
            img = codec.decode_image(
                media["payload"][i].as_py(),
                media["width"][i].as_py(),
                media["height"][i].as_py(),
            )
            want = ResizeImages._nn_resize(img, 8)
            got = np.frombuffer(r["payload"], dtype=np.uint8).reshape(8, 8, 3)
            assert (got == want).all()
            checked += 1
        else:
            assert r["payload"] == media["payload"][i].as_py()  # passthrough
    assert checked > 0


def test_sample_frames_uniform(ray_session):
    import ray.data

    from sqlgrep_ray.stages.multimodal import sample_frames, synth_media

    media = synth_media(60)
    out = sample_frames(ray.data.from_arrow(media), n_frames=4, frame_bytes=256).take_all()
    vids = {
        media["media_id"][i].as_py(): media["payload"][i].as_py()
        for i in range(media.num_rows)
        if media["media_type"][i].as_py() == "video"
    }
    assert vids  # fixture has videos
    from collections import defaultdict

    frames = defaultdict(dict)
    for r in out:
        frames[r["media_id"]][r["frame_idx"]] = r["frame"]
    assert set(frames) == set(vids)
    for mid, by_idx in frames.items():
        # 6-frame streams, n=4 -> uniform indices floor(j*6/4) = 0,1,3,4
        assert sorted(by_idx) == [0, 1, 3, 4]
        for k, payload in by_idx.items():
            assert payload == vids[mid][k * 256 : (k + 1) * 256]


# ---------------------------------------------------------------------------
# KLL quantile sketch
# ---------------------------------------------------------------------------


def test_kll_exact_regime(ray_session):
    """Below k values no compaction fires: sketch == truncation-index
    percentile (0-based floor(q*n)) exactly."""
    import ray.data

    from sqlgrep_ray.stages.sketch import approx_quantiles

    rng = np.random.RandomState(3)
    vals = rng.randint(0, 10_000, 1500).astype(np.float64)
    ds = ray.data.from_arrow(pa.table({"x": pa.array(vals)})).repartition(5)
    got = approx_quantiles(ds, "x", qs=(0.0, 0.25, 0.5, 0.95, 1.0), k=2048)
    s = np.sort(vals)
    n = len(s)
    exp = [float(s[min(int(np.floor(q * n)), n - 1)]) for q in (0.0, 0.25, 0.5, 0.95, 1.0)]
    assert got == exp


def test_kll_accuracy_uniform_and_zipf(ray_session):
    """Rank error stays within 2/k of N on 200k values, uniform and
    heavy-tailed, across many blocks (forces compaction + merges)."""
    import ray.data

    from sqlgrep_ray.stages.sketch import approx_quantiles

    rng = np.random.RandomState(9)
    n, k = 200_000, 256
    for vals in (
        rng.rand(n),
        rng.zipf(1.5, n).astype(np.float64),
    ):
        ds = ray.data.from_arrow(pa.table({"x": pa.array(vals)})).repartition(32)
        qs = (0.1, 0.5, 0.9, 0.99)
        got = approx_quantiles(ds, "x", qs=qs, k=k)
        s = np.sort(vals)
        for q, v in zip(qs, got):
            # a tied value covers a rank interval; error is distance from
            # the target rank to that interval
            lo = np.searchsorted(s, v, side="left")
            hi = np.searchsorted(s, v, side="right")
            err = max(lo - q * n, q * n - hi, 0)
            assert err <= 2 * n / k, (q, v, lo, hi)


def test_kll_empty_and_null(ray_session):
    import ray.data

    from sqlgrep_ray.stages.sketch import approx_quantiles

    empty = ray.data.from_arrow(pa.table({"x": pa.array([], pa.float64())}))
    assert approx_quantiles(empty, "x") == []
    withnull = ray.data.from_arrow(
        pa.table({"x": pa.array([None, 5.0, None, 1.0], pa.float64())})
    )
    got = approx_quantiles(withnull, "x", qs=(0.0, 0.5), k=64)
    assert got == [1.0, 5.0]


def test_mixture_sample(ray_session):
    """Targets turn into min(1, target/n) rates; output matches a manual
    stratified_sample at those rates; hit counts land near targets."""
    import ray.data

    from sqlgrep_ray.stages.sample import mixture_sample, stratified_sample

    rng = np.random.RandomState(5)
    n = 6000
    strata = np.array(["web", "code", "chat"])[rng.randint(0, 3, n)]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "src": pa.array(strata, pa.string()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(6)
    targets = {"web": 400, "code": 100_000}  # chat unlisted -> dropped
    out, rates = mixture_sample(ds, "doc_id", "src", targets)
    df = out.to_pandas()
    n_web = int((strata == "web").sum())
    n_code = int((strata == "code").sum())
    assert rates == {
        "web": min(1.0, 400 / n_web),
        "code": 1.0,
    }
    counts = df["src"].value_counts().to_dict()
    assert counts.get("chat", 0) == 0
    assert counts["code"] == n_code  # target above size keeps everything
    assert abs(counts["web"] - 400) < 4 * np.sqrt(400)
    # equal to the manual stratified filter at the same rates
    manual = stratified_sample(ds, "doc_id", "src", rates).to_pandas()
    assert sorted(df["doc_id"]) == sorted(manual["doc_id"])


def test_grouped_approx_distinct(ray_session):
    """Per-group HLL: estimates within the p-bound of exact per-group
    distinct counts, across blocks; nulls (key or value) ignored."""
    import ray.data

    from sqlgrep_ray.stages.sketch import grouped_approx_distinct, hll_error_bound

    rng = np.random.RandomState(21)
    n = 60_000
    keys = np.array(["g0", "g1", "g2", "g3"])[rng.randint(0, 4, n)]
    # distinct cardinality differs wildly per group
    vals = np.where(
        keys == "g0", rng.randint(0, 40, n),           # tiny: ~40 distinct
        np.where(keys == "g1", rng.randint(0, 2000, n),
                 rng.randint(0, 20000, n)),
    ).astype(np.int64)
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    ds = ray.data.from_arrow(t).repartition(16)
    out = {
        r["k"]: r["approx_distinct"]
        for r in grouped_approx_distinct(ds, "k", "v", p=12).take_all()
    }
    import pandas as pd

    df = pd.DataFrame({"k": keys, "v": vals})
    exact = df.groupby("k")["v"].nunique().to_dict()
    assert set(out) == set(exact)
    for g, e in exact.items():
        assert abs(out[g] - e) <= max(5 * hll_error_bound(12) * e, 3), (g, out[g], e)


def test_grouped_approx_distinct_sparse_exact(ray_session):
    """Keys whose every block partial stays sparse (≤ 2^p/8 distinct per
    block-key) come back EXACT — the oracle contract for conv_tools_hll.
    Mixed corpus: small keys exact even when a hot key goes dense."""
    import pandas as pd
    import ray.data

    from sqlgrep_ray.stages.sketch import grouped_approx_distinct, hll_error_bound

    rng = np.random.RandomState(5)
    n = 80_000
    keys = np.array(["small0", "small1", "small2", "hot"])[
        np.minimum(rng.randint(0, 8, n), 3)
    ]
    vals = np.where(
        keys == "hot", rng.randint(0, 25_000, n), rng.randint(0, 97, n)
    ).astype(np.int64)
    ds = ray.data.from_arrow(
        pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    ).repartition(16)
    out = {
        r["k"]: r["approx_distinct"]
        for r in grouped_approx_distinct(ds, "k", "v", p=12).take_all()
    }
    exact = pd.DataFrame({"k": keys, "v": vals}).groupby("k")["v"].nunique()
    for g in ["small0", "small1", "small2"]:
        assert out[g] == exact[g], (g, out[g], exact[g])  # sparse → exact
    assert abs(out["hot"] - exact["hot"]) <= 5 * hll_error_bound(12) * exact["hot"]


def test_grouped_approx_distinct_nulls_empty(ray_session):
    import ray.data

    from sqlgrep_ray.stages.sketch import grouped_approx_distinct

    t = pa.table(
        {
            "k": pa.array(["a", "a", None, "b"]),
            "v": pa.array([1, None, 2, 3], pa.int64()),
        }
    )
    out = {
        r["k"]: r["approx_distinct"]
        for r in grouped_approx_distinct(ray.data.from_arrow(t), "k", "v").take_all()
    }
    assert out == {"a": 1, "b": 1}  # null key row and null value dropped
    empty = ray.data.from_arrow(
        pa.table({"k": pa.array([], pa.string()), "v": pa.array([], pa.int64())})
    )
    assert grouped_approx_distinct(empty, "k", "v").count() == 0


def test_count_min_sparse_exact(ray_session):
    import ray.data

    from sqlgrep_ray.stages.sketch import count_min_counts

    vals = ["a"] * 10 + ["b"] * 3 + ["c"] * 7 + [None] * 2
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)})).repartition(4)
    t = count_min_counts(ds, "v", ["a", "b", "c", "zz"])
    assert t["n"].to_pylist() == [10, 3, 7, 0]
    assert t["v"].to_pylist() == ["a", "b", "c", "zz"]


def test_count_min_dense_upper_bound(ray_session):
    import numpy as np
    import ray.data

    from sqlgrep_ray.stages.sketch import count_min_counts

    rng = np.random.default_rng(7)
    vals = (rng.zipf(1.3, 100_000) % 5000).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"v": vals})).repartition(8)
    # width 512 << 5000 distinct: dense regime, CMS one-sided guarantee
    items = [0, 1, 2, 3, 4, 4999]
    t = count_min_counts(ds, "v", items, width=512, depth=4)
    true = {q: int((vals == q).sum()) for q in items}
    eps_n = (np.e / 512) * len(vals)
    for q, est in zip(items, t["n"].to_pylist()):
        assert est >= true[q]  # never undercounts
        assert est <= true[q] + 4 * eps_n  # loose wpp bound, deterministic seed


def test_count_min_empty_and_single_block(ray_session):
    import ray.data

    from sqlgrep_ray.stages.sketch import count_min_counts

    empty = ray.data.from_arrow(pa.table({"v": pa.array([], pa.string())}))
    t = count_min_counts(empty, "v", ["x"])
    assert t["n"].to_pylist() == [0]


def test_grouped_kll_exact_regime_matches_exact_path(ray_session):
    import numpy as np
    import ray.data

    from sqlgrep_ray.stages.quantile import grouped_percentile
    from sqlgrep_ray.stages.sketch import grouped_approx_quantiles

    rng = np.random.default_rng(5)
    n = 20000
    t = pa.table(
        {
            "k": rng.integers(0, 100, n),
            "v": rng.integers(-1000, 1000, n).astype("float64"),
        }
    )
    ds = ray.data.from_arrow(t).repartition(7)
    approx = {
        r["k"]: (r["q50"], r["q90"])
        for r in grouped_approx_quantiles(
            ds, "k", "v", qs=(0.5, 0.9), k=512, num_buckets=4
        ).take_all()
    }
    e50 = {
        r["k"]: r["percentile"]
        for r in grouped_percentile(ds, "k", "v", 0.5, num_buckets=4).take_all()
    }
    e90 = {
        r["k"]: r["percentile"]
        for r in grouped_percentile(ds, "k", "v", 0.9, num_buckets=4).take_all()
    }
    assert len(approx) == 100
    assert all(
        approx[k] == (e50[k], e90[k]) for k in e50
    )  # ≤ k values per key ⇒ EXACT


def test_grouped_kll_hot_key_bounded_error(ray_session):
    import numpy as np
    import ray.data

    from sqlgrep_ray.stages.sketch import grouped_approx_quantiles

    rng = np.random.default_rng(7)
    vals = rng.standard_normal(300_000) * 100
    t = pa.table({"k": np.zeros(300_000, np.int64), "v": vals})
    ds = ray.data.from_arrow(t).repartition(16)
    row = grouped_approx_quantiles(
        ds, "k", "v", qs=(0.5, 0.99), k=256, num_buckets=2
    ).take_all()[0]
    sv = np.sort(vals)
    for q, name in ((0.5, "q50"), (0.99, "q99")):
        rank = np.searchsorted(sv, row[name]) / len(sv)
        assert abs(rank - q) < 2 / 256  # KLL rank-error bound, empirical


def test_grouped_kll_nulls(ray_session):
    import ray.data

    from sqlgrep_ray.stages.sketch import grouped_approx_quantiles

    t = pa.table(
        {
            "k": pa.array(["a", "a", None, "b", None]),
            "v": pa.array([1.0, None, 5.0, 2.0, 7.0]),
        }
    )
    rows = grouped_approx_quantiles(
        ray.data.from_arrow(t), "k", "v", qs=(0.5,), num_buckets=2
    ).take_all()
    got = {r["k"]: r["q50"] for r in rows}
    # null value dropped for 'a'; null keys ONE group, q50 of [5,7] ⇒ 7
    assert got == {"a": 1.0, "b": 2.0, None: 7.0}


def test_grouped_heavy_hitters_exact_regime(ray_session):
    import ray.data

    from sqlgrep_ray.stages.sketch import grouped_heavy_hitters

    t = pa.table(
        {
            "k": pa.array(["a"] * 6 + ["b"] * 4 + [None] * 2),
            "v": pa.array(["x", "x", "y", "x", None, "z", "y", "y", "q", "y", "x", "x"]),
        }
    )
    rows = grouped_heavy_hitters(
        ray.data.from_arrow(t).repartition(3), "k", "v", k=8, num_buckets=2
    ).take_all()
    got = {(r["k"], r["item"]): r["count"] for r in rows}
    # ≤ k distinct per key ⇒ exact counts; null value dropped; null key
    # is ONE group
    assert got == {
        ("a", "x"): 3,
        ("a", "y"): 1,
        ("a", "z"): 1,
        ("b", "y"): 3,
        ("b", "q"): 1,
        (None, "x"): 2,
    }


def test_grouped_heavy_hitters_guarantee(ray_session):
    import collections

    import numpy as np
    import ray.data

    from sqlgrep_ray.stages.sketch import grouped_heavy_hitters

    rng = np.random.default_rng(3)
    n = 200_000
    keys = rng.integers(0, 5, n)
    items = (rng.zipf(1.3, n) % 3000).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"k": keys, "v": items})).repartition(12)
    K = 64
    retained = {
        (r["k"], r["item"]): r["count"]
        for r in grouped_heavy_hitters(ds, "k", "v", k=K, num_buckets=2).take_all()
    }
    true = collections.Counter(zip(keys.tolist(), items.tolist()))
    per_key_n = collections.Counter(keys.tolist())
    for (kk, it), c in true.items():
        if c > per_key_n[kk] / (K + 1):
            assert (kk, it) in retained  # MG presence guarantee per key
    for (kk, it), est in retained.items():
        assert est <= true[(kk, it)]  # counts are lower bounds


def test_profile_columns_exact_and_dense(ray_session):
    import numpy as np
    import ray.data

    from sqlgrep_ray.stages.profile import profile_columns

    t = pa.table(
        {
            "i": pa.array([5, None, -3, 5, 10], pa.int64()),
            "s": pa.array(["b", "a", None, "zz", "a"]),
            "f": pa.array([1.5, 2.0, None, None, -0.5]),
        }
    )
    out = {
        r["column"]: r
        for r in profile_columns(
            ray.data.from_arrow(t).repartition(3), ["i", "s", "f"]
        ).to_pylist()
    }
    assert out["i"] == {
        "column": "i", "n": 5, "nulls": 1, "n_distinct": 3,
        "min_v": "-3", "max_v": "10",
    }
    assert out["s"]["n_distinct"] == 3
    assert (out["s"]["min_v"], out["s"]["max_v"]) == ("a", "zz")
    assert (out["f"]["min_v"], out["f"]["max_v"]) == ("-0.5", "2")
    # numeric extrema merge NUMERICALLY across blocks ("9" < "10")
    t2 = pa.table({"x": pa.array([9, 10, 2], pa.int64())})
    row = profile_columns(
        ray.data.from_arrow(t2).repartition(3), ["x"]
    ).to_pylist()[0]
    assert (row["min_v"], row["max_v"]) == ("2", "10")
    # dense HLL regime stays within ~1%
    rng = np.random.default_rng(1)
    v = rng.integers(0, 200_000, 400_000)
    big = ray.data.from_arrow(pa.table({"v": v})).repartition(8)
    nd = profile_columns(big, ["v"]).to_pylist()[0]["n_distinct"]
    true = len(np.unique(v))
    assert abs(nd - true) / true < 0.02


def test_profile_columns_rejects_lists(ray_session):
    import ray.data

    from sqlgrep_ray.stages.profile import profile_columns

    import pytest

    t = pa.table({"l": pa.array([[1], [2]], pa.list_(pa.int64()))})
    with pytest.raises(Exception, match="numeric and string"):
        profile_columns(ray.data.from_arrow(t), ["l"])
