"""segment_dedup: corpus-level boilerplate removal, naive-reference parity."""

import re
from collections import Counter

import numpy as np
import pyarrow as pa

import sqlgrep_ray.stages.segdedup as sd


def _naive(texts, sep, join_str, min_count):
    segs = [re.split(sep, t) for t in texts]
    counts = Counter(s for ss in segs for s in ss)
    out = []
    for ss in segs:
        kept = [s for s in ss if counts[s] < min_count]
        out.append((join_str.join(kept), len(ss), len(ss) - len(kept)))
    return out


def _run(texts, ray_session, **kw):
    import ray.data

    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )
    return (
        sd.segment_dedup(ray.data.from_arrow(t).repartition(5), **kw)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


BOILER = "copyright 2026 example corp all rights reserved"


def test_segment_dedup_lines(ray_session):
    rng = np.random.RandomState(3)
    words = [f"u{i}" for i in range(500)]
    texts = []
    for i in range(60):
        lines = [" ".join(rng.choice(words, 6)) for _ in range(4)]
        if i % 2 == 0:
            lines.insert(0, BOILER)  # planted boilerplate on half the docs
        texts.append("\n".join(lines))
    texts.append("")  # empty doc
    texts.append(BOILER)  # all-boilerplate doc -> cleaned to empty
    out = _run(texts, ray_session, sep=r"\n", join_str="\n", min_count=2)
    ref = _naive(texts, r"\n", "\n", 2)
    for i, (txt, nseg, nrem) in enumerate(ref):
        assert out.loc[i, "text"] == txt, i
        assert out.loc[i, "n_segments"] == nseg, i
        assert out.loc[i, "n_removed"] == nrem, i
    # the planted boilerplate is gone everywhere
    assert not out["text"].str.contains("copyright").any()
    # unique lines survived
    assert (out.loc[:59, "n_segments"] - out.loc[:59, "n_removed"] == 4).all()


def test_segment_dedup_distributed_count_path(ray_session, monkeypatch):
    """Forcing the bucketed count merge (the merge gate's bound at 0)
    matches the driver merge."""
    from sqlgrep_ray.stages import exchange

    texts = [f"{BOILER}\nunique line {i}" for i in range(30)]
    base = _run(texts, ray_session, sep=r"\n", join_str="\n", min_count=2)
    monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 0)
    dist = _run(texts, ray_session, sep=r"\n", join_str="\n", min_count=2)
    assert base.equals(dist)
    assert (base["n_removed"] == 1).all()


def test_segment_dedup_within_doc_multiplicity(ray_session):
    """min_count counts occurrences INCLUDING repeats inside one document."""
    texts = ["x\nx\ny"]  # 'x' occurs twice in the single doc
    out = _run(texts, ray_session, sep=r"\n", join_str="\n", min_count=2)
    assert out.loc[0, "text"] == "y"
    assert out.loc[0, "n_removed"] == 2
