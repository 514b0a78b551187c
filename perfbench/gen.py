"""Seeded inputs for the benchmark, written with the truth beside them.

Everything here is a pure function of ``(seed, size)``: the same seed gives
byte-identical inputs.  The engine receives only the generated files; the
truth (each turn's shape and fields, the expected tool enrichment) is kept in
separate files that only the correctness checks read.

Inputs:

* ``transcripts`` — Parquet shards ``(conv_id, turn_idx, role, text, tool,
  ts)`` for ``flagship_batch``, plus ``truth.parquet``;
* ``rawlog`` — a raw text log (``app.log``) and a small lookup log
  (``users.log``) for ``logsql_interactive``;
* ``star`` — ``lineitem``/``orders``/``part`` Parquet for ``sql_analytics``;
* ``fixed`` — seed-independent files for the two operations that fail on
  known engine faults (their inputs must not vary with the seed).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# shape shares of a transcript turn / raw log line: the four route tables of
# the flagship router in priority order, then lines no table admits
SHAPES = ("ftpd", "ssh", "clients", "csv", "noise")
SHAPE_SHARES = (0.40, 0.20, 0.20, 0.10, 0.10)
HOT_CONVS = 3
HOT_SHARE = 0.20  # share of all turns owned by the hot conversations
TURNS_PER_SHARD = 10_000

ROLES = np.array(["user", "assistant", "system", "tool"])
# the enrich lookup: 6 rows; "none" is absent so left-join misses occur
TOOL_LOOKUP = [
    ("bash", "shell", "cheap"),
    ("search", "retrieval", "mid"),
    ("editor", "shell", "cheap"),
    ("browser", "retrieval", "expensive"),
    ("python", "compute", "mid"),
    ("sql", "compute", "expensive"),
]
TOOLS = np.array([t[0] for t in TOOL_LOOKUP] + ["none"])

HOSTS = np.array(
    [
        "lns-vlq-45.bru.adsl.example.be",
        "24-54-76-216.bflony.example.net",
        "host-ip9-45.example.org",
        "dsl-189-134.example.net",
        "mail.example.com",
        "",  # "()" in an ftpd line: the optional group is absent -> NULL
    ]
)
CSV_HOSTS = HOSTS[:-1]
USERS = np.array(["root", "admin", "guest", "test", "oracle", "dev", "ops", "www"])
TEAMS = np.array(["infra", "web", "data"])
DOWS = np.array(["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"])
MONS = np.array(["Jun", "Jul", "Aug"])
NOISE_WORDS = np.array(
    ["session", "opened", "closed", "for", "check", "pass", "cron", "sudo", "kernel"]
)
EVENTS = np.array(["login", "logout", "sync", "error", "upload"])

# fields the router extracts, per sink (the truth columns)
FIELD_TYPES = {
    "ip": pa.string(),
    "hostname": pa.string(),
    "user": pa.string(),
    "year": pa.int64(),
    "month": pa.string(),
    "day": pa.int64(),
    "hour": pa.int64(),
    "minute": pa.int64(),
    "second": pa.int64(),
    "event_ms": pa.int64(),
    "device_id": pa.int64(),
    "mac_address": pa.string(),
    "events": pa.list_(pa.string()),
}


def _rng(seed: int) -> np.random.RandomState:
    return np.random.RandomState(seed % 2**32)


def tool_lookup_table() -> pa.Table:
    tool, cat, cost = (list(c) for c in zip(*TOOL_LOOKUP))
    return pa.table({"tool": tool, "tool_category": cat, "tool_cost": cost})


# ---------------------------------------------------------------------------
# line shapes: each builds the texts and the field columns of n rows at once
# ---------------------------------------------------------------------------


def _ips(rng: np.random.RandomState, n: int) -> list[str]:
    q = rng.randint(1, 255, (n, 4))
    return [f"{a}.{b}.{c}.{d}" for a, b, c, d in q.tolist()]


def _clock(rng, n):
    return rng.randint(1, 29, n), rng.randint(0, 24, n), rng.randint(0, 60, n), rng.randint(0, 60, n)


def _ftpd(rng, n):
    mon, dow = MONS[rng.randint(len(MONS), size=n)], DOWS[rng.randint(7, size=n)]
    day, hh, mm, ss = _clock(rng, n)
    year = rng.randint(2003, 2008, n)
    ip, host = _ips(rng, n), HOSTS[rng.randint(len(HOSTS), size=n)]
    pid = rng.randint(1000, 40000, n)
    texts = [
        f"{mo} {d:02d} {h:02d}:{m:02d}:{s:02d} combo ftpd[{p}]: connection from {i} ({ho}) "
        f"at {dw} {mo} {d:02d} {h:02d}:{m:02d}:{s:02d} {y}"
        for mo, d, h, m, s, p, i, ho, dw, y in zip(
            mon.tolist(), day.tolist(), hh.tolist(), mm.tolist(), ss.tolist(),
            pid.tolist(), ip, host.tolist(), dow.tolist(), year.tolist())
    ]
    return texts, {
        "ip": ip, "hostname": [h or None for h in host.tolist()], "year": year.tolist(),
        "month": mon.tolist(), "day": day.tolist(), "hour": hh.tolist(),
        "minute": mm.tolist(), "second": ss.tolist(),
    }


def _ssh(rng, n):
    host = HOSTS[rng.randint(len(HOSTS) - 1, size=n)].tolist()
    user = USERS[rng.randint(len(USERS), size=n)].tolist()
    day, hh, mm, _ = _clock(rng, n)
    pid = rng.randint(1000, 40000, n)
    texts = [
        f"Jul {d} {h:02d}:{m:02d}:00 combo sshd(pam_unix)[{p}]: authentication failure; "
        f"logname= uid=0 euid=0 tty=NODEVssh ruser= rhost={ho}  user={u}"
        for d, h, m, p, ho, u in zip(day.tolist(), hh.tolist(), mm.tolist(), pid.tolist(), host, user)
    ]
    return texts, {"hostname": host, "user": user}


def _clients(rng, n, ms0):
    # distinct, increasing event times
    ms = (ms0 + np.cumsum(rng.randint(1, 5000, n))).tolist()
    device = rng.randint(1, 2000, n).tolist()
    as_str = rng.randint(2, size=n).tolist()  # numbers or numeric strings (CONVERT)
    macs = [":".join(f"{x:02x}" for x in row) for row in rng.randint(0, 256, (n, 6)).tolist()]
    n_ev = rng.randint(1, 4, n)
    ev_flat = EVENTS[rng.randint(len(EVENTS), size=int(n_ev.sum()))].tolist()
    ends = np.cumsum(n_ev).tolist()
    events = [ev_flat[e - k:e] for e, k in zip(ends, n_ev.tolist())]
    texts = [
        json.dumps({"timestamp": t, "metadata": {"device_id": str(d) if s else d,
                                                 "mac_address": m}, "events": ev})
        for t, d, s, m, ev in zip(ms, device, as_str, macs, events)
    ]
    return texts, {"event_ms": ms, "device_id": device, "mac_address": macs, "events": events}


def _csv(rng, n):
    ip, host = _ips(rng, n), CSV_HOSTS[rng.randint(len(CSV_HOSTS), size=n)].tolist()
    year, mon = rng.randint(2003, 2008, n).tolist(), MONS[rng.randint(len(MONS), size=n)].tolist()
    day, hh, mm, ss = (a.tolist() for a in _clock(rng, n))
    texts = [";".join(map(str, row)) for row in zip(ip, host, year, mon, day, hh, mm, ss)]
    return texts, {"ip": ip, "hostname": host, "year": year, "month": mon,
                   "day": day, "hour": hh, "minute": mm, "second": ss}


# near misses: noise that contains a route table's prefilter substring but
# that no table admits, so the router hands it to extraction in vain
NEAR_MISSES = ("connection from unknown peer", "{truncated payload", "retry; backoff")
NEAR_MISS_SHARE = 0.5  # of the noise lines


def _noise(rng, n):
    k = rng.randint(3, 9, n)
    words = NOISE_WORDS[rng.randint(len(NOISE_WORDS), size=int(k.sum()))].tolist()
    ends = np.cumsum(k).tolist()
    day = rng.randint(1, 29, n).tolist()
    miss = np.where(rng.uniform(size=n) < NEAR_MISS_SHARE,
                    rng.randint(len(NEAR_MISSES), size=n), -1).tolist()
    return [f"Jun {d} combo kernel: " + " ".join(words[e - c:e])
            + ("" if m < 0 else " " + NEAR_MISSES[m])
            for d, e, c, m in zip(day, ends, k.tolist(), miss)], {}


def _lines(rng: np.random.RandomState, n: int, ms0: int):
    """n lines with the shape shares above, in random order.

    Returns (texts, shape name per line, field columns over all lines)."""
    shape_idx = rng.choice(len(SHAPES), size=n, p=SHAPE_SHARES)
    texts: list = [None] * n
    fields = {name: [None] * n for name in FIELD_TYPES}
    for s, make in enumerate((_ftpd, _ssh, lambda r, k: _clients(r, k, ms0), _csv, _noise)):
        rows = np.flatnonzero(shape_idx == s).tolist()
        t, cols = make(rng, len(rows))
        for r, v in zip(rows, t):
            texts[r] = v
        for name, vals in cols.items():
            col = fields[name]
            for r, v in zip(rows, vals):
                col[r] = v
    return texts, [SHAPES[s] for s in shape_idx.tolist()], fields


# ---------------------------------------------------------------------------
# flagship_batch: transcript shards + per-turn truth
# ---------------------------------------------------------------------------


def _conv_sizes(rng, n: int) -> list[int]:
    hot = int(n * HOT_SHARE)
    sizes = [hot // HOT_CONVS] * (HOT_CONVS - 1)
    sizes.append(hot - sum(sizes))
    rest = n - hot
    while rest > 0:
        s = int(min(max(1, rng.geometric(1 / 12)), 60, rest))
        sizes.append(s)
        rest -= s
    return sizes


def transcript_tables(seed: int, n_turns: int) -> tuple[pa.Table, pa.Table]:
    """(transcripts, truth): the engine's input and each turn's expected
    sink, extracted fields and tool enrichment."""
    rng = _rng(seed)
    sizes = _conv_sizes(rng, n_turns)
    # interleave the hot conversations with the rest so every shard sees skew
    order = rng.permutation(len(sizes))
    sz = np.array(sizes, dtype=np.int64)[order]
    names = np.array([f"conv-{k:06d}" for k in order.tolist()])
    conv_id = np.repeat(names, sz)
    turn = (np.arange(n_turns) - np.repeat(np.cumsum(sz) - sz, sz)).astype(np.int32)
    texts, shapes, fields = _lines(rng, n_turns, 1_700_000_000_000)
    tools = TOOLS[rng.randint(len(TOOLS), size=n_turns)]
    ts = (np.datetime64("2025-06-01T00:00:00", "us")
          + (rng.randint(0, 86400 * 30, n_turns) * 1_000_000).astype("timedelta64[us]"))
    table = pa.table({
        "conv_id": pa.array(conv_id, pa.string()),
        "turn_idx": pa.array(turn, pa.int32()),
        "role": pa.array(ROLES[turn % 4]),
        "text": pa.array(texts, pa.string()),
        "tool": pa.array(tools),
        "ts": pa.array(ts, pa.timestamp("us")),
    })
    lookup = {t: (c, k) for t, c, k in TOOL_LOOKUP}
    enrich = [lookup.get(t, (None, None)) for t in tools.tolist()]
    truth = {
        "conv_id": table["conv_id"],
        "turn_idx": table["turn_idx"],
        "role": table["role"],
        "sink": pa.array([None if s == "noise" else s for s in shapes], pa.string()),
        "tool": table["tool"],
        "tool_category": pa.array([e[0] for e in enrich], pa.string()),
        "tool_cost": pa.array([e[1] for e in enrich], pa.string()),
    }
    for name, typ in FIELD_TYPES.items():
        truth[name] = pa.array(fields[name], typ)
    return table, pa.table(truth)


def write_transcripts(out: str, seed: int, n_turns: int, n_shards: int) -> None:
    table, truth = transcript_tables(seed, n_turns)
    shard_dir = os.path.join(out, "shards")
    os.makedirs(shard_dir)
    bounds = np.linspace(0, n_turns, n_shards + 1).astype(int)
    for i in range(n_shards):
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]),
                       os.path.join(shard_dir, f"part-{i:04d}.parquet"))
    pq.write_table(truth, os.path.join(out, "truth.parquet"))
    # a one-shard input for the untimed warm pass
    warm = os.path.join(out, "warm")
    os.makedirs(warm)
    pq.write_table(table.slice(0, min(2000, n_turns)), os.path.join(warm, "part-0000.parquet"))


def log_lines(seed: int, n_lines: int) -> list[str]:
    return _lines(_rng(seed), n_lines, 1_600_000_000_000)[0]


# ---------------------------------------------------------------------------
# logsql_interactive: raw log + lookup log
# ---------------------------------------------------------------------------


def users_lines() -> list[str]:
    # "ops" and "www" have no entry, so the inner join drops their rows
    return [f"user={u} team={TEAMS[i % len(TEAMS)]} level={i + 1}"
            for i, u in enumerate(USERS[:6])]


def write_rawlog(out: str, seed: int, n_lines: int) -> None:
    texts = log_lines(seed, n_lines)
    with open(os.path.join(out, "app.log"), "w") as fh:
        fh.write("\n".join(texts) + "\n")
    with open(os.path.join(out, "users.log"), "w") as fh:
        fh.write("\n".join(users_lines()) + "\n")
    with open(os.path.join(out, "warm.log"), "w") as fh:
        fh.write("\n".join(texts[:200]) + "\n")


# ---------------------------------------------------------------------------
# sql_analytics: star schema
# ---------------------------------------------------------------------------


def star_tables(seed: int, n_lineitem: int) -> dict[str, pa.Table]:
    rng = _rng(seed)
    n_orders = max(1, n_lineitem // 4)
    n_part = max(1, n_lineitem // 40)
    orderkey = rng.randint(1, n_orders + 1, n_lineitem).astype(np.int64)
    lineitem = pa.table({
        "l_orderkey": orderkey,
        "l_linenumber": np.arange(n_lineitem, dtype=np.int64),
        "l_partkey": rng.randint(1, n_part + 1, n_lineitem).astype(np.int64),
        "l_quantity": rng.randint(1, 51, n_lineitem).astype(np.int64),
        "l_extendedprice": np.round(rng.uniform(900, 105000, n_lineitem), 2),
        "l_discount": rng.randint(0, 11, n_lineitem) / 100.0,
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.randint(3, size=n_lineitem)]),
        "l_shipmode": pa.array(np.array(["AIR", "MAIL", "RAIL", "SHIP", "TRUCK", "FOB", "REG AIR"])
                               [rng.randint(7, size=n_lineitem)]),
    })
    orders = pa.table({
        "o_orderkey": np.arange(1, n_orders + 1, dtype=np.int64),
        "o_custkey": rng.randint(1, max(2, n_orders // 10), n_orders).astype(np.int64),
        "o_orderstatus": pa.array(np.array(["F", "O", "P"])[rng.randint(3, size=n_orders)]),
        "o_totalprice": np.round(rng.uniform(1000, 500000, n_orders), 2),
        "o_orderpriority": pa.array(np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                                              "5-LOW"])[rng.randint(5, size=n_orders)]),
    })
    part = pa.table({
        "p_partkey": np.arange(1, n_part + 1, dtype=np.int64),
        "p_brand": pa.array([f"Brand#{b}" for b in rng.randint(11, 56, n_part)]),
        "p_container": pa.array([f"C{c}" for c in rng.randint(0, 40, n_part)]),
        "p_size": rng.randint(1, 51, n_part).astype(np.int64),
    })
    return {"lineitem": lineitem, "orders": orders, "part": part}


def write_star(out: str, seed: int, n_lineitem: int) -> None:
    for name, t in star_tables(seed, n_lineitem).items():
        pq.write_table(t, os.path.join(out, f"{name}.parquet"))
    for name, t in star_tables(seed + 1, 2000).items():  # warm pass input
        pq.write_table(t, os.path.join(out, f"warm_{name}.parquet"))


# ---------------------------------------------------------------------------
# seed-independent inputs of the known-fault operations
# ---------------------------------------------------------------------------

FIXED_SEED = 7


def write_fixed(out: str) -> None:
    rng = _rng(FIXED_SEED)
    lines = _clients(rng, 200, 1_500_000_000_000)[0]
    with open(os.path.join(out, "fixed_clients.log"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    pq.write_table(star_tables(FIXED_SEED, 4000)["part"], os.path.join(out, "fixed_part.parquet"))


# ---------------------------------------------------------------------------
# cache by (kind, seed, size)
# ---------------------------------------------------------------------------

WRITERS = {
    "transcripts": lambda out, seed, size: write_transcripts(
        out, seed, size, max(1, size // TURNS_PER_SHARD)),
    "rawlog": write_rawlog,
    "star": write_star,
    "fixed": lambda out, seed, size: write_fixed(out),
}
CACHE_KEEP = 24  # input sets kept per kind; older ones are removed


def _version() -> str:
    """Digest of this file: a cached set is reused only if this generator
    wrote it."""
    with open(__file__, "rb") as fh:
        return hashlib.sha1(fh.read()).hexdigest()[:10]


def ensure(cache_root: str, kind: str, seed: int, size: int) -> str:
    """Directory holding the ``kind`` inputs for (seed, size), made once."""
    key = f"{kind}-{_version()}" + (f"-s{seed}-n{size}" if kind != "fixed" else "")
    path = os.path.join(cache_root, key)
    if os.path.exists(os.path.join(path, "DONE")):
        os.utime(path)
        return path
    shutil.rmtree(path, ignore_errors=True)
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    WRITERS[kind](tmp, seed, size)
    open(os.path.join(tmp, "DONE"), "w").close()
    os.replace(tmp, path)
    _evict(cache_root, kind)
    return path


def _evict(cache_root: str, kind: str) -> None:
    sets = [os.path.join(cache_root, d) for d in os.listdir(cache_root)
            if d.startswith(f"{kind}-") and ".tmp" not in d]
    sets.sort(key=os.path.getmtime)
    for old in sets[:-CACHE_KEEP]:
        shutil.rmtree(old, ignore_errors=True)
