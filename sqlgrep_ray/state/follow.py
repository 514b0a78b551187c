"""Follow/tail mode — the batch substitute for sqlgrep's ``-f``.

The reference tails a growing file and re-renders the running aggregate
snapshot after every line (``src/executor.rs:175-234``; aggregate re-render
``:213-230``). The Ray-Data analogue follows a growing DIRECTORY of parquet
shards: each poll round

1. runs any pending input shards through the existing
   :class:`~sqlgrep_ray.state.checkpoint.CheckpointedRun` (exactly-once,
   per-partition manifests — a restart resumes without reprocessing);
2. computes the per-block PARTIAL aggregates of just the NEW chunks' output
   (the same combiner the query engine uses) and folds them into the running
   partial state — the snapshot is re-rendered by merging partials, never by
   re-reading old shards: per-round work is O(new data + |groups|), the
   batched version of the reference's per-line state update;
3. emits the refreshed snapshot (merged + finalized + HAVING + sorted),
   exactly what a fresh full run of the same plan over all data would emit.

Follow-mode SELECT queries (the reference just prints matching lines as they
arrive) are the pipeline output itself — consume the chunk parquet under
``out_dir`` as it appears; ``FollowRun`` adds the aggregate-snapshot layer.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterator, Optional, Sequence

import pyarrow as pa
import ray.data

from sqlgrep_ray.pipelines.plan import AggregatePlan
from sqlgrep_ray.pipelines.runner import GroupMerge
from sqlgrep_ray.sources import read_shards
from sqlgrep_ray.stages.aggregate import PartialAggregator
from sqlgrep_ray.state.checkpoint import CheckpointedRun, _shard_name


class FollowRun:
    """Poll ``input_dir`` for new parquet shards; maintain a running
    aggregate snapshot of ``plan`` over the pipeline output.

    ``build_pipeline(ds) -> ds`` transforms each chunk (must preserve the
    ``shard`` column, as for :class:`CheckpointedRun`); ``plan`` is the
    snapshot aggregate evaluated over the accumulated output rows.

    ``files_per_chunk`` defaults to 1 here (unlike batch runs): one chunk
    per shard keeps chunk identities stable as new shards appear, so a
    poll round never reprocesses. Appended shards should sort after
    existing ones (log-rotation style monotone names) — same append-only
    contract as the reference's tail.
    """

    def __init__(
        self,
        input_dir: str,
        out_dir: str,
        plan: AggregatePlan,
        build_pipeline: Callable[["ray.data.Dataset"], "ray.data.Dataset"] = lambda d: d,
        ctx=None,
        files_per_chunk: int = 1,
        extra_partition_cols: Sequence[str] = (),
    ):
        self.ckpt = CheckpointedRun(
            input_dir,
            out_dir,
            build_pipeline,
            extra_partition_cols=extra_partition_cols,
            files_per_chunk=files_per_chunk,
        )
        self.plan = plan
        self.out_dir = out_dir
        self._partial = PartialAggregator(plan, ctx)
        self._merge = GroupMerge(plan, ctx)
        self._partials: list[pa.Table] = []
        self._seen_shards: set[str] = set()

    # -- internals ----------------------------------------------------------

    def _shard_dirs(self, shards: Sequence[str]) -> list[str]:
        return [
            d
            for s in shards
            if os.path.isdir(d := os.path.join(self.out_dir, f"shard={s}"))
        ]

    def _fold_shards(self, shards: Sequence[str]) -> None:
        """Partial-aggregate the given shards' output and fold into state."""
        dirs = self._shard_dirs(shards)
        files = [
            os.path.join(root, n)
            for d in dirs
            for root, _sub, names in os.walk(d)
            for n in names
            if n.endswith(".parquet")
        ]
        if not files:
            return
        partials = read_shards(files).map_batches(
            self._partial, batch_format="pyarrow", zero_copy_batch=True
        ).map_batches(self._merge.encode, batch_format="pyarrow", zero_copy_batch=True)
        tbls = list(partials.iter_batches(batch_format="pyarrow"))
        if tbls:
            # re-merge the running state with the new partials so it stays
            # O(|groups|), not O(rounds × groups) — the partial merge is
            # associative (sum of sums, min of mins, …)
            self._partials = [self._merge.merge(self._partials + tbls)]

    # -- public -------------------------------------------------------------

    def poll_once(self) -> Optional[pa.Table]:
        """Process pending shards; return the refreshed snapshot, or None
        when nothing new arrived (the reference only re-renders on input)."""
        results = self.ckpt.run()
        new_shards: list[str] = []
        for r in results:
            for f in r.files:
                s = _shard_name(f)
                if s not in self._seen_shards:
                    self._seen_shards.add(s)
                    new_shards.append(s)
        if not new_shards:
            return None
        self._fold_shards(new_shards)
        return self.snapshot()

    def snapshot(self) -> pa.Table:
        """Merged + finalized + HAVING-filtered + sorted running aggregate —
        equals a fresh full run of ``plan`` over everything processed."""
        if not self._partials:
            return pa.table({})
        return self._merge.result(self._partials[0])

    def follow(
        self,
        poll_interval: float = 2.0,
        max_rounds: Optional[int] = None,
        idle_rounds_to_stop: Optional[int] = None,
    ) -> Iterator[pa.Table]:
        """Generator of snapshots — one per round that saw new data
        (the reference's re-rendered display, batched)."""
        rounds = 0
        idle = 0
        while True:
            snap = self.poll_once()
            if snap is not None:
                idle = 0
                yield snap
            else:
                idle += 1
                if idle_rounds_to_stop is not None and idle >= idle_rounds_to_stop:
                    return
            rounds += 1
            if max_rounds is not None and rounds >= max_rounds:
                return
            time.sleep(poll_interval)
