"""Composed curation pipeline (pipelines/curate.py)."""

import pyarrow as pa

from sqlgrep_ray.pipelines.curate import curate

BASE = (
    "the quick brown fox jumps over the lazy dog while the cat sleeps on "
    "the warm mat near the door and the sun shines"
)


def test_curate_filters_and_dedups(ray_session):
    import ray.data

    docs = pa.table(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "text": [
                BASE,                                  # keeper
                "  " + BASE.upper() + " ",             # exact dup (normalized fp)
                BASE + " again today friends",         # near-dup
                "kurz",                                # too short
                "der hund und die katze spielen in dem garten bei dem haus "
                "und die kinder laufen auf der wiese", # wrong language
                BASE,                                  # exact dup
            ],
        }
    )
    out = curate(
        ray.data.from_arrow(docs),
        min_quality=0.2,
        min_tokens=3,
        drop_near_dups=True,
        near_dup_threshold=0.8,
    ).to_pandas()
    assert sorted(out["doc_id"]) == [0]
    # stats columns travel with survivors
    assert {"lang_pred", "quality_score", "fingerprint"} <= set(out.columns)


def test_curate_without_near_dup_removal(ray_session):
    import ray.data

    docs = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": [BASE, BASE + " again today friends"],
        }
    )
    out = curate(
        ray.data.from_arrow(docs), min_quality=0.1, min_tokens=3
    ).to_pandas()
    # near-dups both survive when only exact dedup is on
    assert sorted(out["doc_id"]) == [0, 1]


def test_curate_join_fallback_equals_broadcast(ray_session, monkeypatch):
    """Forcing the distributed semi-/anti-join branch (BROADCAST_IDS_MAX=0)
    must give the same survivors as the broadcast filter path."""
    import ray.data
    from sqlgrep_ray.pipelines import curate as curate_mod

    docs = pa.table(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "text": [
                BASE,
                "  " + BASE.upper() + " ",
                BASE + " again today friends",
                "kurz",
                "another english text about the cat and the dog in the house",
                BASE,
            ],
        }
    )
    kw = dict(min_quality=0.1, min_tokens=3, drop_near_dups=True,
              near_dup_threshold=0.8)
    small = curate_mod.curate(ray.data.from_arrow(docs), **kw).to_pandas()
    monkeypatch.setattr(curate_mod, "BROADCAST_IDS_MAX", 0)
    joined = curate_mod.curate(ray.data.from_arrow(docs), **kw).to_pandas()
    assert sorted(small["doc_id"]) == sorted(joined["doc_id"])


def test_id_filter_branches_agree_on_null_ids_and_lists(ray_session, monkeypatch):
    """``_id_filter``'s key-bucketed branch (BROADCAST_IDS_MAX=0) keeps the
    broadcast branch's rows on a NULL id and a list column, semi and anti."""
    import ray.data
    from sqlgrep_ray.pipelines import curate as curate_mod

    left = pa.table(
        {
            "doc_id": pa.array([1, None, 3, 4, None, 6], pa.int64()),
            "emb": pa.array(
                [[float(i)] for i in range(6)], pa.list_(pa.float32())
            ),
        }
    )
    ids = pa.table({"doc_id": pa.array([3, None, 6, 9], pa.int64())})

    def rows(keep):
        out = curate_mod._id_filter(
            ray.data.from_arrow([left.slice(0, 3), left.slice(3)]),
            ray.data.from_arrow(ids), "doc_id", keep,
        )
        return sorted((repr(r["doc_id"]), list(r["emb"])) for r in out.take_all())

    small = {keep: rows(keep) for keep in (True, False)}
    monkeypatch.setattr(curate_mod, "BROADCAST_IDS_MAX", 0)
    large = {keep: rows(keep) for keep in (True, False)}
    assert small == large
    assert len(small[True]) == 4 and len(small[False]) == 2
