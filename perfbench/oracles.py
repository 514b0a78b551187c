"""Expected results computed apart from the engine, and the comparisons.

* ``flagship_batch``: the generator's per-turn truth (shape, fields, tool
  enrichment) and counts taken from it;
* ``logsql_interactive``: a plain-Python ``re``/``json`` reading of the same
  log lines, with each query written out by hand;
* ``sql_analytics``: DuckDB over the same Parquet files.

Each ``check_*`` returns a list of mismatch descriptions; empty means equal.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, defaultdict

import pyarrow.parquet as pq

import gen

FLOAT_REL = 1e-9
FLOAT_ABS = 1e-6


# ---------------------------------------------------------------------------
# row comparison
# ---------------------------------------------------------------------------


def _sort_key(row: dict):
    key = []
    for k in sorted(row):
        v = row[k]
        if v is None:
            key.append((2, ""))
        elif isinstance(v, (int, float)):
            key.append((0, float(f"{v:.6g}")))
        else:
            key.append((1, str(v)))
    return key


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (a is not None and b is not None
                and math.isclose(a, b, rel_tol=FLOAT_REL, abs_tol=FLOAT_ABS))
    return a == b


def compare_rows(got: list[dict], want: list[dict], ordered: bool) -> list[str]:
    """Multiset (or, when ``ordered``, sequence) equality with a float
    tolerance. Returns up to a few mismatch descriptions."""
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    if not ordered:
        got, want = sorted(got, key=_sort_key), sorted(want, key=_sort_key)
    errors = []
    for i, (g, w) in enumerate(zip(got, want)):
        if set(g) != set(w) or not all(_same(g[k], w[k]) for k in w):
            errors.append(f"row {i}: got {g}, expected {w}")
            if len(errors) >= 3:
                break
    return errors


# ---------------------------------------------------------------------------
# flagship_batch
# ---------------------------------------------------------------------------

FIELDS = list(gen.FIELD_TYPES) + ["tool_category", "tool_cost"]


def check_flagship(out_dir: str, truth_path: str, aggs: dict) -> dict[str, list[str]]:
    """Every written row against the truth of its (conv_id, turn_idx), and
    the three aggregates against counts taken from the truth labels."""
    truth = pq.read_table(truth_path)
    truth = truth.filter(truth["sink"].is_valid())
    got = pq.read_table(out_dir, partitioning="hive")
    got = got.select(["conv_id", "turn_idx", "sink"] + FIELDS)
    errors: dict[str, list[str]] = {}

    want = {(r["conv_id"], r["turn_idx"]): r for r in truth.to_pylist()}
    bad, seen = [], set()
    for r in got.to_pylist():
        key = (r["conv_id"], r["turn_idx"])
        w = want.get(key)
        if key in seen or w is None:
            bad.append(f"unexpected or duplicate row {key}")
        elif any(r[k] != w[k] for k in ["sink"] + FIELDS):
            diff = {k: (r[k], w[k]) for k in ["sink"] + FIELDS if r[k] != w[k]}
            bad.append(f"row {key}: (got, expected) {diff}")
        seen.add(key)
        if len(bad) >= 3:
            break
    if not bad and len(seen) != len(want):
        bad.append(f"{len(seen)} routed rows, expected {len(want)}")
    if bad:
        errors["checkpointed_run"] = bad

    rows = truth.to_pylist()
    sinks = Counter(r["sink"] for r in rows)
    roles = Counter((r["sink"], r["role"]) for r in rows)
    hours: dict[int, list[int]] = defaultdict(list)
    for r in rows:
        if r["hour"] is not None:
            hours[r["hour"]].append(r["minute"])
    expected = {
        "sink_counts": [{"sink": s, "n": n} for s, n in sinks.items()],
        "sink_role_counts": [{"sink": s, "role": r, "n": n} for (s, r), n in roles.items()],
        "hour_histogram": [{"hour": h, "n": len(m), "max_minute": max(m)}
                           for h, m in hours.items()],
    }
    for name, want_rows in expected.items():
        if name in aggs:
            e = compare_rows(aggs[name], want_rows, ordered=False)
            if e:
                errors[name] = e
    return errors


# ---------------------------------------------------------------------------
# logsql_interactive
# ---------------------------------------------------------------------------

FTPD_RE = re.compile(
    r"connection from ([0-9.]+) \((.+)?\) at ([a-zA-Z]+) ([a-zA-Z]+) ([0-9]+) "
    r"([0-9]+):([0-9]+):([0-9]+) ([0-9]+)")
SSH_RE = re.compile(r"rhost=([a-zA-Z0-9_\.\-]+)\s+user=(\w+)")
USERS_RE = re.compile(r"user=(\w+) team=(\w+) level=([0-9]+)")


def _read(path: str) -> list[str]:
    with open(path) as fh:
        return fh.read().splitlines()


def conns(lines):
    for line in lines:
        m = FTPD_RE.search(line)
        if m:
            g = m.groups()
            yield {"ip": g[0], "hostname": g[1], "year": int(g[8]), "month": g[3],
                   "day": int(g[4]), "hour": int(g[5]), "minute": int(g[6]),
                   "second": int(g[7])}


def ssh(lines):
    for line in lines:
        m = SSH_RE.search(line)
        if m:
            yield {"hostname": m.group(1), "username": m.group(2)}


def clients(lines):
    for line in lines:
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if not isinstance(obj, dict):
            continue
        meta = obj.get("metadata") or {}
        row = {"event_ms": obj.get("timestamp"),
               "device_id": None if meta.get("device_id") is None else int(meta["device_id"]),
               "mac_address": meta.get("mac_address"), "events": obj.get("events")}
        if any(v is not None for v in row.values()):
            yield row


def splits(lines):
    for line in lines:
        p = line.split(";")
        if len(p) < 8:
            continue
        try:
            nums = [int(p[i]) for i in (2, 4, 5, 6, 7)]
        except ValueError:
            continue
        yield {"ip": p[0], "hostname": p[1], "year": nums[0], "month": p[3],
               "day": nums[1], "hour": nums[2], "minute": nums[3], "second": nums[4]}


def users(lines):
    for line in lines:
        m = USERS_RE.search(line)
        if m:
            yield {"name": m.group(1), "team": m.group(2), "level": int(m.group(3))}


def _value(v) -> str:
    """The reference's text rendering of one value."""
    if v is None:
        return "NULL"
    if isinstance(v, float):
        return f"{v:.2f}"
    if isinstance(v, str):
        return f"'{v}'"
    if isinstance(v, list):
        return "{" + ", ".join(_value(x) for x in v) + "}"
    return str(v)


def _text(rows: list[dict]) -> list[str]:
    return [", ".join(f"{k}: {_value(v)}" for k, v in r.items()) for r in rows]


def log_expected(files: dict[str, str]) -> dict[str, list[str]]:
    """The text lines each ``LOG_QUERIES`` entry should print."""
    app = _read(files["app"])
    fx = _read(files["fixed"])
    cn, sh, cl = list(conns(app)), list(ssh(app)), list(clients(app))
    out: dict[str, list[dict]] = {}
    out["ftpd_filter"] = [{"ip": r["ip"], "hostname": r["hostname"], "hour": r["hour"]}
                          for r in cn if r["hour"] >= 20 and r["year"] == 2005]
    pairs = Counter((r["username"], r["hostname"]) for r in sh)
    out["ssh_having"] = [{"username": u, "hostname": h, "n": n}
                         for (u, h), n in pairs.items() if n > 12]
    out["ssh_distinct"] = [{"username": u} for u in sorted({r["username"] for r in sh})]
    out["clients_limit"] = [{"event_ms": r["event_ms"], "device_id": r["device_id"]}
                            for r in sorted(cl, key=lambda r: -r["event_ms"])[:10]]
    out["ftpd_case"] = [{"ip": r["ip"], "half": "am" if r["hour"] < 12 else "pm"}
                        for r in cn if r["minute"] == 0]
    by_dev: dict[int, list[int]] = defaultdict(list)
    for r in cl:
        by_dev[r["device_id"]].append(r["event_ms"])
    out["clients_group"] = [{"device_id": d, "n": len(ms), "last_ms": max(ms)}
                            for d, ms in by_dev.items() if len(ms) > 1]
    groups: dict[tuple, list[int]] = defaultdict(list)
    for r in splits(app):
        groups[(r["month"], r["year"])].append(r["second"])
    out["splits_group"] = [{"month": m, "year": y, "n": len(s), "s": sum(s)}
                           for (m, y), s in groups.items()]
    team = {u["name"]: u for u in users(_read(files["users"]))}
    out["ssh_join"] = [{"ssh.username": r["username"], "users.team": team[r["username"]]["team"],
                        "users.level": team[r["username"]]["level"]}
                       for r in sh if r["hostname"] == "mail.example.com" and r["username"] in team]
    out["events_not_null"] = [{"device_id": r["device_id"]}
                              for r in clients(fx) if r["events"] is not None]
    return {k: _text(v) for k, v in out.items()}


def check_lines(got: list[str], want: list[str], ordered: bool) -> list[str]:
    if (got if ordered else sorted(got)) == (want if ordered else sorted(want)):
        return []
    extra = list((Counter(got) - Counter(want)).elements())[:2]
    missing = list((Counter(want) - Counter(got)).elements())[:2]
    return [f"{len(got)} lines, expected {len(want)}; unexpected {extra}; missing {missing}"
            + ("; order differs" if not extra and not missing else "")]


# ---------------------------------------------------------------------------
# sql_analytics
# ---------------------------------------------------------------------------


def sql_expected(queries: list[tuple[str, str]], paths: dict[str, str]) -> dict[str, list[dict]]:
    import duckdb

    con = duckdb.connect()
    try:
        for name, path in paths.items():
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")
        out = {}
        for name, sql in queries:
            cur = con.execute(sql)
            cols = [d[0] for d in cur.description]
            out[name] = [dict(zip(cols, row)) for row in cur.fetchall()]
        return out
    finally:
        con.close()
