"""Bloom-filter membership (stages/bloom): exactness in both verify
regimes, forced false positives, string keys, NULLs, sizing."""

import numpy as np
import pyarrow as pa
import pytest

from sqlgrep_ray.stages.bloom import (
    bloom_params,
    bloom_semi_join,
    build_bloom,
)


def test_bloom_params_sizing():
    n_bits, k = bloom_params(1_000_000, 0.01)
    assert n_bits % 64 == 0
    assert 9_000_000 < n_bits < 10_500_000  # ~9.59 bits/key at 1%
    assert 6 <= k <= 8
    with pytest.raises(ValueError, match="BLOOM_MAX_BITS"):
        bloom_params(10**12, 1e-9)


def _mk(ray, rows, **cols):
    import ray.data as rd

    return rd.from_arrow(pa.table(cols)).repartition(4)


def test_semi_and_anti_exact_int_keys(ray_session):
    ray = ray_session
    corpus = _mk(ray, 0, x=list(range(1000)), y=[i % 7 for i in range(1000)])
    keys = _mk(ray, 0, k=[2, 3, 5, 700, 999, 1500])
    semi = bloom_semi_join(corpus, keys, "x", "k", keep=True)
    got = sorted(r["x"] for r in semi.take_all())
    assert got == [2, 3, 5, 700, 999]
    anti = bloom_semi_join(corpus, keys, "x", "k", keep=False)
    assert anti.count() == 995


def test_forced_false_positives_still_exact(ray_session):
    # fpp=0.5 floods the probe with false positives; exact verify must
    # still produce the exact answer in both regimes
    ray = ray_session
    corpus = _mk(ray, 0, x=list(range(2000)))
    keys = _mk(ray, 0, x=list(range(0, 2000, 400)))
    for bmax in (5_000_000, 0):
        semi = bloom_semi_join(corpus, keys, "x", fpp=0.5, broadcast_max=bmax)
        assert sorted(r["x"] for r in semi.take_all()) == list(range(0, 2000, 400))
        anti = bloom_semi_join(
            corpus, keys, "x", fpp=0.5, keep=False, broadcast_max=bmax
        )
        assert anti.count() == 2000 - 5


def test_string_keys_and_nulls(ray_session):
    ray = ray_session
    corpus = _mk(ray, 0, s=["a", "b", None, "c", "dd", None])
    keys = _mk(ray, 0, s=["b", "dd", "zz"])
    semi = bloom_semi_join(corpus, keys, "s")
    assert sorted(r["s"] for r in semi.take_all()) == ["b", "dd"]
    # NULL never matches (reference NULL⇒false); anti keeps the nulls
    anti = bloom_semi_join(corpus, keys, "s", keep=False)
    got = [r["s"] for r in anti.take_all()]
    assert sorted(x for x in got if x is not None) == ["a", "c"]
    assert got.count(None) == 2


def test_empty_key_side(ray_session):
    ray = ray_session
    corpus = _mk(ray, 0, x=[1, 2, 3])
    empty = _mk(ray, 0, x=[1]).filter(lambda r: False)
    assert bloom_semi_join(corpus, empty, "x").count() == 0
    assert bloom_semi_join(corpus, empty, "x", keep=False).count() == 3


def test_build_bloom_no_false_negatives(ray_session):
    ray = ray_session
    keys = _mk(ray, 0, k=list(range(5000)))
    bm, n_bits, k = build_bloom(keys, "k", fpp=0.01)
    from sqlgrep_ray.stages.bloom import _hash2, _test_bits

    h1, h2 = _hash2(pa.chunked_array([pa.array(list(range(5000)))]))
    assert _test_bits(bm, h1, h2, k, n_bits).all()  # membership is certain
    # false-positive rate on disjoint probes stays near target
    h1, h2 = _hash2(pa.chunked_array([pa.array(list(range(100000, 120000)))]))
    fp = _test_bits(bm, h1, h2, k, n_bits).mean()
    assert fp < 0.05


def test_forced_distributed_verify_null_key_list_column(ray_session):
    """broadcast_max=0 (key-bucketed verify) returns the broadcast verify's
    rows on a corpus with NULL keys and a list column, semi and anti."""
    import ray.data as rd

    corpus = pa.table(
        {
            "s": ["a", None, "b", "c", None, "dd"],
            "emb": pa.array(
                [[float(i), 1.0] for i in range(6)], pa.list_(pa.float32())
            ),
        }
    )
    keys = pa.table({"s": ["b", None, "dd", "zz"]})

    def rows(ds):
        return sorted(
            (repr(r["s"]), list(r["emb"])) for r in ds.take_all()
        )

    for keep in (True, False):
        small = rows(
            bloom_semi_join(rd.from_arrow(corpus), rd.from_arrow(keys), "s", keep=keep)
        )
        large = rows(
            bloom_semi_join(
                rd.from_arrow(corpus), rd.from_arrow(keys), "s", keep=keep,
                broadcast_max=0,
            )
        )
        assert small == large
        assert len(small) == (2 if keep else 4)
