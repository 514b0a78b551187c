"""The Ray driver process of one benchmark run; ``run.py`` starts it.

Usage: ``python3 perfbench/worker.py <spec.json>``.  The spec names the
workload, the inputs, the run length and whether to trace.  The process sets
up the session once, runs whole rounds of the workload's operations
until the run length is spent, and writes timings, results and (when traced)
spans and layer figures to ``spec["result_path"]``.  It prints nothing that
``run.py`` reads; Ray's own output goes to the log file ``run.py`` gives it.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import ray  # noqa: E402
import ray.data  # noqa: E402

import sqlgrep_ray  # noqa: E402,F401
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - T_START


def start_ray(spec: dict) -> None:
    """Start Ray as the engine's entry points do (``cli.py``,
    ``jobs/run_flagship.py``), plus a bounded object store and a temp dir of
    this run's own."""
    ray.init(
        address="local",
        num_cpus=spec["num_cpus"],
        include_dashboard=False,
        logging_level="ERROR",
        object_store_memory=spec["object_store_bytes"],
        _temp_dir=spec["ray_tmp"],
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    if spec["workload"] == "logsql_interactive":
        # the CLI keeps input line order for SELECT output (cli.py)
        ctx.execution_options.preserve_order = True


def canonical(result, ordered: bool) -> str:
    """A digest of a result that ignores row order (unless ``ordered``) and
    the last digits of floats."""
    def norm(v):
        if isinstance(v, float):
            return float(f"{v:.9g}")
        if isinstance(v, dict):
            return {k: norm(x) for k, x in v.items()}
        if isinstance(v, list):
            return [norm(x) for x in v]
        return v

    if isinstance(result, list):
        rows = [json.dumps(norm(r), sort_keys=True, default=str) for r in result]
        if not ordered:
            rows.sort()
        text = "\n".join(rows)
    else:
        text = json.dumps(norm(result), sort_keys=True, default=str)
    return hashlib.sha1(text.encode()).hexdigest()


def run_round(wl, tracer, ordered: set) -> dict:
    """One round: every operation once, in order; a failure is recorded and
    the round goes on."""
    ops, results = [], {}
    m0, t0 = time.monotonic(), time.perf_counter()
    for name, _rows, fn in wl.ops():
        t = time.perf_counter()
        try:
            if tracer:
                with tracer.span(f"op.{name}"):
                    res = fn(tracer)
            else:
                res = fn(None)
            err = None
        except Exception as e:  # counted as a failed operation, never fatal
            res, err = None, f"{type(e).__name__}: {e}"[:500]
        ops.append({"name": name, "s": time.perf_counter() - t, "error": err})
        if err is None:
            results[name] = res
    wall, m1 = time.perf_counter() - t0, time.monotonic()
    wl.end_round()
    digests = {n: canonical(r, n in ordered) for n, r in results.items()}
    return {"wall": wall, "span": (m0, m1), "ops": ops, "digests": digests,
            "results": results}


def main() -> int:
    from workloads import ORDERED

    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    wl = WORKLOADS[spec["workload"]](spec)

    t0 = time.perf_counter()
    start_ray(spec)
    wl.define()
    wl.warm()
    setup_s = IMPORT_S + time.perf_counter() - t0

    rounds, traced = [], []
    tracer = Tracer(run_id=f"{spec['workload']}-{spec['seed']}") if spec["trace"] else None
    t_end = time.perf_counter() + spec["seconds"]
    while time.perf_counter() < t_end or len(rounds) + len(traced) < spec["min_rounds"]:
        # a traced run alternates untraced and traced rounds, so the
        # difference of their medians is the tracing overhead
        use = tracer if tracer and (len(rounds) + len(traced)) % 2 == 1 else None
        last = run_round(wl, use, ORDERED)
        (traced if use else rounds).append(last)

    out = {
        "import_s": IMPORT_S,
        "setup_s": setup_s,
        "rounds": [{k: r[k] for k in ("wall", "span", "ops")} for r in rounds + traced],
        "traced": [False] * len(rounds) + [True] * len(traced),
        "digests": [r["digests"] for r in rounds + traced],
        "results": last["results"],  # flagship_out belongs to this round
        "rows_per_round": sum(rows for _n, rows, _f in wl.ops()),
        "flagship_out": getattr(wl, "last_out", None),
    }
    if tracer:
        from kernels import kernel_rates

        n = max(len(traced), 1)
        out["ray"] = {k: v / n for k, v in wl.stats.items()}
        out["layers"] = wl.layer_stats(tracer)
        out["kernels"] = kernel_rates(spec["seed"])
        self_s = tracer.self_times()
        out["span_self"] = {}
        for s, st in zip(tracer.spans, self_s):
            out["span_self"].setdefault(s["name"], []).append(st)
        tracer.write(spec["spans_path"])
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ray.shutdown()
    with open(spec["result_path"], "w") as fh:
        json.dump(out, fh, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
