"""CLI — the Ray-Data analogue of the reference's ``sqlgrep`` binary.

    python -m sqlgrep_ray.cli -d defs.sql data.log -c "SELECT … FROM t"
    python -m sqlgrep_ray.cli -d defs.sql data.log          # REPL loop
    cat data.log | python -m sqlgrep_ray.cli -d defs.sql --stdin -c "…"

Mirrors ``src/main.rs``: ``-d`` table-definition file(s), positional input
file(s) (text lines; ``.parquet`` works too), ``--stdin`` data from stdin
(``main.rs:171-173``), ``-c`` one-shot query, ``--format text|json|csv``
output (reference ``--output-format``), ``--show-run-stats`` wall time /
line counts (``executor.rs:12-36``). The REPL supports ``\\d [table]``
describe (``main.rs:238-272``) and, on a TTY, readline completion over SQL
keywords + table/column names (``main.rs:92-106``).

This is an entry-point script, so it OWNS the Ray session (the library never
calls ``ray.init``).
"""

from __future__ import annotations

import argparse
import sys
import time

_SQL_KEYWORDS = [
    "SELECT", "FROM", "WHERE", "GROUP BY", "HAVING", "ORDER BY", "LIMIT",
    "DISTINCT", "INNER JOIN", "OUTER JOIN", "CROSS JOIN", "ON", "USING",
    "AND", "OR", "NOT", "IN", "IS", "NULL", "CASE", "WHEN", "THEN", "ELSE",
    "END", "AS", "EXPLAIN", "WITH", "UNION", "QUALIFY", "OVER",
    "PARTITION BY", "BETWEEN", "EXISTS", "ANY", "ALL",
    "count", "sum", "min", "max", "avg", "stddev", "variance", "percentile",
    "array_agg", "string_agg", "bool_and", "bool_or",
]


def describe_lines(tables, name: str | None = None) -> list[str]:
    """``\\d`` output: table list, or one table's columns+types+modifiers
    (reference ``main.rs:238-272``)."""
    if not name:
        names = sorted(tables._tables)
        if not names:
            return ["(no tables defined)"]
        return ["Tables:"] + [f"  {n}" for n in names]
    tdef = tables[name]
    sql_names = {"string": "TEXT", "int": "INT", "float": "REAL",
                 "bool": "BOOLEAN", "timestamp": "TIMESTAMP"}

    def tname(vt) -> str:
        if vt.kind == "array":
            return tname(vt.elem) + "[]"
        return sql_names.get(vt.kind, repr(vt))

    lines = [f"Table {tdef.name}:"]
    for c in tdef.columns:
        mods = []
        if c.not_null:
            mods.append("NOT NULL")
        if c.trim:
            mods.append("TRIM")
        if c.convert:
            mods.append("CONVERT")
        if c.default is not None:
            mods.append(f"DEFAULT {c.default!r}")
        suffix = ("  " + " ".join(mods)) if mods else ""
        lines.append(f"  {c.name}  {tname(c.vtype)}{suffix}")
    lines.append("Patterns:")
    for p in tdef.patterns:
        lines.append(f"  {p.name}: {p.regex}")
    return lines


def _install_completer(tables) -> None:
    """Readline completion over keywords + table + column names (TTY only)."""
    try:
        import readline
    except ImportError:  # pragma: no cover - platform without readline
        return
    words = list(_SQL_KEYWORDS)
    for tdef in tables._tables.values():
        words.append(tdef.name)
        words.extend(c.name for c in tdef.columns)

    def complete(text: str, state: int):
        cands = [w for w in words if w.lower().startswith(text.lower())]
        return cands[state] if state < len(cands) else None

    readline.set_completer(complete)
    readline.set_completer_delims(" \t\n,()=<>")
    readline.parse_and_bind("tab: complete")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="sqlgrep_ray")
    ap.add_argument("inputs", nargs="*", help="input file(s): text lines or parquet")
    ap.add_argument("-d", "--data-definition", action="append", default=[],
                    help="table definition file (CREATE TABLE …)")
    ap.add_argument("-c", "--command", help="query to execute")
    ap.add_argument("--stdin", action="store_true",
                    help="read input DATA lines from stdin (main.rs:171-173)")
    ap.add_argument("--command-file",
                    help="execute the query stored in this file (main.rs)")
    ap.add_argument("-f", "--follow", action="store_true",
                    help="follow the input DIRECTORY: poll for new shards "
                    "(text or parquet files) and re-emit results per round — "
                    "the batch analogue of tail -f (executor.rs:175-234)")
    ap.add_argument("--head", action="store_true",
                    help="follow from the start: include shards that already "
                    "exist (default: only shards appearing after startup)")
    ap.add_argument("--poll-interval", type=float, default=2.0)
    ap.add_argument("--max-rounds", type=int, default=None,
                    help="follow: stop after N poll rounds (tests; default ∞)")
    ap.add_argument("--format", choices=["text", "json", "csv"], default="text")
    ap.add_argument("--show-run-stats", action="store_true")
    ap.add_argument("--edit-table",
                    help="open the table editor on this table "
                    "(table_editor.rs:19-60; curses TUI, preview-only when "
                    "stdout is not a TTY)")
    ap.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args(argv)
    if args.edit_table:
        # editor runs locally on a 1000-line sample — no Ray session needed
        if not args.data_definition or not args.inputs:
            print("--edit-table needs -d DEFS and an input file", file=sys.stderr)
            return 2
        from sqlgrep_ray.editor import run_editor

        return run_editor(args.data_definition[0], args.inputs[0], args.edit_table)
    if args.command_file and not args.command:
        with open(args.command_file) as fh:
            args.command = fh.read().strip()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # reference select output follows input line order (executor.rs:79-104)
    ctx.execution_options.preserve_order = True

    from sqlgrep_ray.api import Tables
    from sqlgrep_ray.sinks import format_csv, format_json, format_text

    tables = Tables()
    for path in args.data_definition:
        with open(path) as fh:
            tables.add_tables(fh.read())

    stdin_lines: list[str] | None = None
    if args.stdin:
        if not args.command:
            print("--stdin consumes stdin as DATA; pass the query with -c",
                  file=sys.stderr)
            return 2
        stdin_lines = [ln.rstrip("\n") for ln in sys.stdin]

    def run_one(sql: str) -> int:
        t0 = time.time()
        stripped = sql.lstrip()
        if stripped.lower().startswith("explain"):
            # EXPLAIN <query>: render the logical plan + physical
            # strategy (ENGINE EXTENSION) — nothing executes
            from sqlgrep_ray.explain import explain_sql

            print(explain_sql(stripped[len("explain"):]))
            return 0
        source = args.inputs[0] if args.inputs else None
        if stdin_lines is not None:
            result = tables.execute_query(sql, source=stdin_lines)
        elif source and len(args.inputs) > 1:
            # multiple input files concatenated in order (executor.rs:38-137)
            import ray.data as rd

            parts = [tables._as_dataset(p, "text") for p in args.inputs]
            ds0 = parts[0]
            for p in parts[1:]:
                ds0 = ds0.union(p)
            result = tables.execute_query(sql, source=ds0)
        else:
            result = tables.execute_query(sql, source=source)
        fmt = {"text": format_text, "json": format_json, "csv": format_csv}[args.format]
        lines = fmt(result)
        for ln in lines:
            print(ln)
        if args.show_run_stats:
            print(f"Executed query in {time.time() - t0:.2f} seconds, "
                  f"{len(lines)} result rows.", file=sys.stderr)
        return 0

    def run_follow(sql: str) -> int:
        """Batch tail of the input DIRECTORY (reference -f follows one file,
        ``executor.rs:175-234``): each round processes only the newly
        appeared shards. Aggregates re-render a running snapshot from
        accumulated per-shard partials (the per-line state update,
        batched, ``:213-230``); selects print just the appended rows."""
        import os

        import pyarrow as pa
        import ray.data as rd

        from sqlgrep_ray.pipelines.plan import AggregatePlan
        from sqlgrep_ray.pipelines.runner import GroupMerge, _apply_join, _apply_where
        from sqlgrep_ray.stages.aggregate import PartialAggregator

        in_dir = args.inputs[0]
        fmt = {"text": format_text, "json": format_json, "csv": format_csv}[args.format]

        def list_files() -> list[str]:
            return sorted(
                os.path.join(in_dir, f)
                for f in os.listdir(in_dir)
                if not f.startswith("_") and not f.startswith(".")
            )

        def read(files: list[str]) -> "rd.Dataset":
            if files[0].endswith(".parquet"):
                return rd.read_parquet(files, columns=["text"])
            return rd.read_text(files)

        q, run = tables.compile_query(sql)
        plan = run.plan
        is_agg = isinstance(plan, AggregatePlan)
        partial = PartialAggregator(plan) if is_agg else None
        gm = GroupMerge(plan) if is_agg else None
        partials: list[pa.Table] = []
        seen: set[str] = set() if args.head else set(list_files())
        rounds = 0
        while True:
            new = [f for f in list_files() if f not in seen]
            seen.update(new)
            if new:
                if is_agg:
                    pds = run.parse(read(new))
                    pds = _apply_join(pds, plan.join, force_inner=True)
                    pds = _apply_where(pds, plan.where, None)
                    tbls = list(
                        pds.map_batches(
                            partial, batch_format="pyarrow", zero_copy_batch=True
                        ).map_batches(
                            gm.encode, batch_format="pyarrow", zero_copy_batch=True
                        ).iter_batches(batch_format="pyarrow")
                    )
                    if tbls:
                        # the running state stays one merged partials table
                        partials = [gm.merge(partials + tbls)]
                    if partials:
                        snap = gm.result(partials[0])
                        if plan.limit is not None:
                            snap = snap.slice(0, plan.limit)
                        for ln in fmt(snap):
                            print(ln, flush=True)
                else:
                    for ln in fmt(run(read(new))):
                        print(ln, flush=True)
            rounds += 1
            if args.max_rounds is not None and rounds >= args.max_rounds:
                return 0
            time.sleep(args.poll_interval)

    def handle(line: str) -> bool:
        """One REPL line; False ⇒ exit requested."""
        line = line.strip()
        if not line or line.startswith("--"):
            return True
        if line.lower() in ("exit", "quit", "\\q"):
            return False
        if line.startswith("\\d"):
            arg = line[2:].strip() or None
            try:
                for ln in describe_lines(tables, arg):
                    print(ln)
            except Exception as ex:
                print(f"error: {ex}", file=sys.stderr)
            return True
        try:
            run_one(line)
        except Exception as ex:  # keep the loop alive like a REPL
            print(f"error: {ex}", file=sys.stderr)
        return True

    try:
        if args.follow:
            if not args.command or not args.inputs:
                print("--follow needs an input directory and -c/--command-file",
                      file=sys.stderr)
                return 2
            return run_follow(args.command)
        if args.command:
            return run_one(args.command)
        # REPL (reference main.rs:291-361): \d describe, completion on a TTY
        if sys.stdin.isatty():
            _install_completer(tables)
            while True:
                try:
                    line = input("> ")
                except (EOFError, KeyboardInterrupt):
                    break
                if not handle(line):
                    break
        else:
            for line in sys.stdin:
                if not handle(line):
                    break
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
