"""sqlgrep_ray benchmark: one workload, one run, one JSON line of metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload flagship_batch --seed 1 --seconds 10 --trace 0

Workloads: ``flagship_batch``, ``logsql_interactive``, ``sql_analytics``
(see README.md).  The run

1. makes (or reuses) the seeded inputs under ``.pbw/inputs``;
2. starts a fresh Ray driver process (``worker.py``) that sets the session up
   once, then runs whole rounds of the workload's operations for
   ``--seconds`` seconds; with ``--trace 1`` it also records spans, the
   ``ds.stats()`` breakdown and single-core kernel rates;
3. checks every result against a computation made apart from the engine;
4. prints, as its last stdout line, ``{"correct", "attempted", "failed",
   "metrics"}``, and removes its temporary outputs.

It exits non-zero, printing no result, when the engine sources are missing or
the driver process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

SIZES = {  # input size per workload: turns, log lines, lineitem rows
    "flagship_batch": {"transcripts": 60_000},
    "logsql_interactive": {"rawlog": 10_000, "fixed": 0},
    "sql_analytics": {"star": 100_000, "fixed": 0},
}
MIN_ROUNDS = 3
RUN_TIMEOUT_S = 150  # the whole command must end within 180 s
RAY_SOCKET_ROOM = 66  # length Ray adds to its temp dir for socket paths
UNIX_PATH_MAX = 107
WORK = os.path.join(ROOT, ".pbw")  # inputs, traces, and each run's scratch


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def ray_tmp_dir():
    """This run's own Ray temp dir inside the checkout when its socket paths
    fit; otherwise ``None`` (Ray's default)."""
    path = os.path.join(WORK, f"ray{os.getpid()}")
    if len(path) + RAY_SOCKET_ROOM <= UNIX_PATH_MAX:
        return path
    print(f"perfbench: {path} is too long for Ray's sockets; using Ray's default",
          file=sys.stderr)
    return None


def nproc() -> int:
    """CPUs as ``nproc`` counts them (it honours ``OMP_NUM_THREADS``)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
        return max(1, int(out.stdout.strip()))
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def kill_leftovers(directory: str, wait_s: float = 10.0) -> None:
    """Stop any process whose command line names a path inside
    ``directory`` (this run's directory or its Ray temp dir), and wait until
    each has ended."""
    marker = os.path.join(directory, "")  # so .pbw/r12 does not match .pbw/r123
    me, killed = os.getpid(), []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read().decode(errors="replace")
            if marker in cmd and int(pid) != me:
                os.kill(int(pid), signal.SIGKILL)
                killed.append(pid)
        except OSError:  # the process ended meanwhile
            continue
    deadline = time.monotonic() + wait_s
    while killed and time.monotonic() < deadline:
        killed = [p for p in killed if _running(p)]
        time.sleep(0.05)


def _running(pid: str) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has ended
    except OSError:
        return False


CLK_TCK = os.sysconf("SC_CLK_TCK")
CPU_SAMPLE_S = 0.1


class TreeCpu:
    """CPU seconds of a process and all its descendants, sampled from
    ``/proc`` by this (otherwise idle) process so the measured one is not
    disturbed.  A descendant keeps the CPU time it had when last seen, so
    Ray worker processes that Ray stops mid-run still count.  CPU time
    leaves out the time the host withholds from a runnable process (steal)."""

    def __init__(self, root: int):
        self.root = root
        self.seen: dict[tuple[int, int], int] = {}  # (pid, start tick) -> CPU ticks
        self.samples: list[tuple[float, float]] = []  # (monotonic s, CPU s)

    def sample(self) -> None:
        procs = {}  # pid -> (ppid, start tick, CPU ticks)
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    f = fh.read().rsplit(")", 1)[1].split()
            except OSError:  # the process ended meanwhile
                continue
            procs[int(pid)] = (int(f[1]), int(f[19]), int(f[11]) + int(f[12]))
        tree, frontier = set(), {self.root}
        while frontier:
            tree |= frontier
            frontier = {p for p, v in procs.items() if v[0] in frontier} - tree
        for p in tree & procs.keys():
            self.seen[(p, procs[p][1])] = procs[p][2]
        self.samples.append((time.monotonic(), sum(self.seen.values()) / CLK_TCK))

    def between(self, t0: float, t1: float) -> float:
        """CPU seconds used between two ``time.monotonic()`` readings,
        interpolated between samples."""
        import numpy as np

        ts, cs = zip(*self.samples)
        return float(np.interp(t1, ts, cs) - np.interp(t0, ts, cs))


def run_worker(spec: dict, run_dir: str) -> dict:
    """Run the driver process, sampling the CPU time of its process tree,
    stop it and everything it started, and return what it wrote, with each
    round's CPU seconds."""
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    # the engine must import in Ray's worker processes too, whatever the cwd
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    log_path = os.path.join(run_dir, "worker.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            env=env, cwd=run_dir, start_new_session=True)
        cpu, deadline = TreeCpu(proc.pid), time.monotonic() + RUN_TIMEOUT_S
        try:
            while (code := proc.poll()) is None and time.monotonic() < deadline:
                cpu.sample()
                time.sleep(CPU_SAMPLE_S)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass
            proc.wait()
            kill_leftovers(run_dir)
            if spec["ray_tmp"]:
                kill_leftovers(spec["ray_tmp"])
    if code != 0 or not os.path.exists(spec["result_path"]):
        with open(log_path) as fh:
            tail = fh.read()[-3000:]
        fail(f"driver process {'timed out' if code is None else f'exited {code}'}:\n{tail}")
    with open(spec["result_path"]) as fh:
        res = json.load(fh)
    for r in res["rounds"]:
        r["cpu"] = cpu.between(*r["span"])
    return res


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def expected_and_check(workload: str, inputs: dict, res: dict) -> dict[str, list[str]]:
    """Mismatches per operation for the last round's results."""
    import oracles
    from workloads import LOG_QUERIES, ORDERED, SQL_QUERIES, star_paths

    results = res["results"]
    if workload == "flagship_batch":
        aggs = {k: v for k, v in results.items() if k != "checkpointed_run"}
        errors = oracles.check_flagship(res["flagship_out"],
                                        os.path.join(inputs["transcripts"], "truth.parquet"),
                                        aggs)
        if "checkpointed_run" not in results:
            errors.pop("checkpointed_run", None)
        return errors
    if workload == "logsql_interactive":
        d = inputs["rawlog"]
        want = oracles.log_expected({
            "app": os.path.join(d, "app.log"), "users": os.path.join(d, "users.log"),
            "fixed": os.path.join(inputs["fixed"], "fixed_clients.log")})
        return {n: e for n, *_ in LOG_QUERIES if n in results
                for e in [oracles.check_lines(results[n], want[n], n in ORDERED)] if e}
    want = oracles.sql_expected(SQL_QUERIES, star_paths(inputs["star"], inputs["fixed"]))
    return {n: e for n, _ in SQL_QUERIES if n in results
            for e in [oracles.compare_rows(results[n], want[n], n in ORDERED)] if e}


def judge(workload: str, inputs: dict, res: dict):
    """(correct, attempted, failed, notes).

    An operation fails when it raises.  A known-fault operation also fails
    when its answer is wrong; any other wrong answer, or an answer that
    differs between rounds, makes the run incorrect."""
    from workloads import KNOWN_FAULTS

    mismatch = expected_and_check(workload, inputs, res)
    notes, correct = [], True
    for name, errs in mismatch.items():
        if name not in KNOWN_FAULTS:
            correct = False
            notes.append(f"{name}: {errs}")
    names = {op["name"] for r in res["rounds"] for op in r["ops"]}
    for name in sorted(names):
        digests = {d[name] for d in res["digests"] if name in d}
        if len(digests) > 1:
            correct = False
            notes.append(f"{name}: result differs between rounds")
    attempted = failed = 0
    for r in res["rounds"]:
        for op in r["ops"]:
            attempted += 1
            if op["error"] is not None or (op["name"] in KNOWN_FAULTS and op["name"] in mismatch):
                failed += 1
    errors = sorted({f"{op['name']}: {op['error']}" for r in res["rounds"]
                     for op in r["ops"] if op["error"]})
    return correct, attempted, failed, notes + errors


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def e2e_metrics(res: dict) -> dict:
    walls = [r["wall"] for r in res["rounds"]]
    wall = statistics.median(walls)
    return {
        "setup_s": (res["setup_s"], "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(r["cpu"] for r in res["rounds"]), "s"),
        "rows_per_s": (res["rows_per_round"] / wall, "rows/s"),
        "driver_peak_rss_mb": (res["rss_mb"], "MB"),
    }


KERNEL_UNITS = {"flagship.extract_yield": "ratio", "sqlfront.parse_s": "s"}


def per_op_seconds(res: dict, traced: Optional[bool] = None) -> dict[str, list[float]]:
    """Seconds of each operation over the rounds (only the traced or only
    the untraced ones when ``traced`` is given)."""
    out: dict[str, list[float]] = {}
    for r, t in zip(res["rounds"], res["traced"]):
        if traced is None or t == traced:
            for op in r["ops"]:
                out.setdefault(op["name"], []).append(op["s"])
    return out


def layer_metrics(res: dict) -> tuple[dict, dict]:
    """(per-layer metrics of every workload, workload-only figures)."""
    plain = [r["wall"] for r, t in zip(res["rounds"], res["traced"]) if not t]
    traced = [r["wall"] for r, t in zip(res["rounds"], res["traced"]) if t]
    ray = res["ray"]
    busy = ray.get("scan", 0.0) + ray.get("map", 0.0) + ray.get("exchange", 0.0)
    out = {f"ray.{k}_s": (ray.get(k, 0.0), "s") for k in ("scan", "map", "iter_blocked")}
    out["ray.overhead_s"] = (statistics.median(traced) - busy, "s")
    out["ray.task_share"] = (busy / statistics.median(traced), "ratio")
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    bind = res["span_self"].get("api.bind") or res["span_self"].get("pipelines.build")
    out["api.bind_s"] = (statistics.median(bind), "s")
    for k, v in res["kernels"].items():
        out[k] = (v, KERNEL_UNITS.get(k, "rows/s"))
    # exchange time is 0 by design where nothing shuffles (flagship_batch),
    # so it is a workload figure rather than a metric of every workload
    own = {**res["layers"], "ray.exchange_s": ray.get("exchange", 0.0)}
    for name, secs in per_op_seconds(res, traced=True).items():
        own[f"runner.{name}_s"] = statistics.median(secs)
    return out, own


def summarize(res: dict, notes: list[str]) -> None:
    """Set-up and round times, per-operation latency and check notes, on
    stderr (the last stdout line carries the metrics)."""
    per_op = per_op_seconds(res)
    lat = [s for v in per_op.values() for s in v]
    lines = [
        f"import {res['import_s']:.2f} s, set-up {res['setup_s']:.2f} s, "
        f"rounds {[round(r['wall'], 2) for r in res['rounds']]} s, "
        f"cpu {[round(r['cpu'], 2) for r in res['rounds']]} s",
        f"median s per operation { {k: round(statistics.median(v), 3) for k, v in per_op.items()} }",
    ]
    if len(lat) >= 2:
        lines.append(f"latency over {len(lat)} operations: p50 {statistics.median(lat):.3f} s, "
                     f"p90 {statistics.quantiles(lat, n=10, method='inclusive')[-1]:.3f} s")
    for line in lines + notes:
        print(f"perfbench: {line}", file=sys.stderr)


def write_trace(workload: str, seed: int, spec: dict, res: dict, metrics: dict,
                own: dict) -> None:
    """Keep the spans and the layer figures under ``.pbw/traces``."""
    trace_dir = os.path.join(WORK, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    stem = os.path.join(trace_dir, f"{workload}-s{seed}")
    shutil.copy(spec["spans_path"], stem + ".spans.json")
    with open(stem + ".layers.json", "w") as fh:
        json.dump({"metrics": {k: v for k, (v, _u) in metrics.items()},
                   "workload_layers": own, "ray": res["ray"]}, fh, indent=1)
    print(f"perfbench: workload layers {json.dumps(own)}", file=sys.stderr)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "sqlgrep_ray", "__init__.py")):
        fail(f"no sqlgrep_ray package next to {HERE}; run from a full checkout")

    import gen

    cache = os.path.join(WORK, "inputs")
    os.makedirs(cache, exist_ok=True)
    inputs = {kind: gen.ensure(cache, kind, args.seed, size)
              for kind, size in SIZES[args.workload].items()}
    run_dir = os.path.join(WORK, f"r{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    spec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "inputs": inputs, "work_dir": run_dir,
        "min_rounds": MIN_ROUNDS,
        "num_cpus": nproc(), "object_store_bytes": 512 * 1024**2,
        "ray_tmp": ray_tmp_dir(),
        "result_path": os.path.join(run_dir, "result.json"),
        "spans_path": os.path.join(run_dir, "spans.json"),
    }
    try:
        res = run_worker(spec, run_dir)
        correct, attempted, failed, notes = judge(args.workload, inputs, res)
        summarize(res, notes)
        if args.trace:
            metrics, own = layer_metrics(res)
            write_trace(args.workload, args.seed, spec, res, metrics, own)
        else:
            metrics = e2e_metrics(res)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if spec["ray_tmp"]:
            shutil.rmtree(spec["ray_tmp"], ignore_errors=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
