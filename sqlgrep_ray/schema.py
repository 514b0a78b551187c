"""Table / column schema model — the Ray-Data analogue of sqlgrep's CREATE TABLE.

Mirrors the semantics of the reference's ``src/data_model.rs`` (TableDefinition,
ColumnDefinition, ColumnParsing, ColumnOptions; see SURVEY.md §1.3) but is a
plain declarative dataclass layer: a :class:`TableDef` compiles (in
``sqlgrep_ray.stages.parse``) to ONE vectorized ``map_batches`` extraction
function over the raw-text column of an Arrow batch.

Type system (reference ``src/model.rs:355-364``):
    Int → int64, Float → float64, Bool → bool, String → string,
    Array(T) → list<T>, Timestamp → timestamp[us] (tz-naive),
    Interval → duration[us].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

import pyarrow as pa

# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VType:
    """A sqlgrep value type. ``kind`` ∈ {int,float,bool,string,timestamp,interval,array}."""

    kind: str
    elem: Optional["VType"] = None  # for kind == "array"

    def to_arrow(self) -> pa.DataType:
        k = self.kind
        if k == "int":
            return pa.int64()
        if k == "float":
            return pa.float64()
        if k == "bool":
            return pa.bool_()
        if k == "string":
            return pa.string()
        if k == "timestamp":
            return pa.timestamp("us")
        if k == "interval":
            return pa.duration("us")
        if k == "array":
            assert self.elem is not None
            return pa.list_(self.elem.to_arrow())
        raise ValueError(f"unknown VType kind {k!r}")

    def __repr__(self) -> str:  # compact: INT, ARRAY[FLOAT]
        if self.kind == "array":
            return f"ARRAY[{self.elem!r}]"
        return self.kind.upper()


INT = VType("int")
FLOAT = VType("float")
BOOL = VType("bool")
STRING = VType("string")
TIMESTAMP = VType("timestamp")
INTERVAL = VType("interval")


def array_of(elem: VType) -> VType:
    return VType("array", elem)


_SQL_TYPE_NAMES = {
    "int": INT,
    "integer": INT,
    "bigint": INT,
    "real": FLOAT,
    "float": FLOAT,
    "double": FLOAT,
    "boolean": BOOL,
    "bool": BOOL,
    "text": STRING,
    "string": STRING,
    "varchar": STRING,
    "timestamp": TIMESTAMP,
    "interval": INTERVAL,
}


def parse_type_name(name: str) -> VType:
    """``real[][]``-style SQL type names → VType (reference ``model.rs:396-411``)."""
    name = name.strip().lower()
    depth = 0
    while name.endswith("[]"):
        name = name[:-2]
        depth += 1
    t = _SQL_TYPE_NAMES.get(name)
    if t is None:
        raise ValueError(f"unknown type name {name!r}")
    for _ in range(depth):
        t = array_of(t)
    return t


# ---------------------------------------------------------------------------
# Column parsing rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegexRef:
    """Reference to capture group ``group`` of named pattern ``pattern``.

    For Split-mode patterns, ``group`` is the 1-based split-field index and
    index 0 means the whole input line (reference ``data_model.rs:181-185``).
    """

    pattern: str
    group: int


@dataclass(frozen=True)
class RegexCapture:
    ref: RegexRef


@dataclass(frozen=True)
class MultiRegex:
    """Several capture groups fused into one Array or Timestamp column
    (reference ``data_model.rs:236-308``)."""

    refs: tuple[RegexRef, ...]


@dataclass(frozen=True)
class JsonPath:
    """``{ .field.sub[2] }`` access path: a tuple of str (field) / int (index).

    Reference ``data_model.rs:368-420``.
    """

    path: tuple[Union[str, int], ...]


Parsing = Union[RegexCapture, MultiRegex, JsonPath]


# ---------------------------------------------------------------------------
# Patterns / columns / table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternDef:
    """A named regex, either Captures or Split mode (``data_model.rs:28-32``)."""

    name: str
    regex: str
    mode: str = "captures"  # "captures" | "split"

    def __post_init__(self) -> None:
        if self.mode not in ("captures", "split"):
            raise ValueError(f"bad pattern mode {self.mode!r}")


@dataclass
class ColumnDef:
    """One output column: extraction rule + type + modifiers.

    Modifiers mirror reference ``ColumnOptions`` (``data_model.rs:422-456``):
    ``not_null`` drops the whole row when NULL; ``trim`` whitespace-trims
    strings; ``convert`` re-parses a JSON string as the target type;
    ``microseconds`` switches the fractional timestamp part from ms to µs;
    ``default`` substitutes for NULL.
    """

    name: str
    vtype: VType
    parsing: Parsing
    not_null: bool = False
    trim: bool = False
    convert: bool = False
    microseconds: bool = False
    default: Any = None


@dataclass
class TableDef:
    """A logical table over raw text lines.

    ``patterns`` are compiled once per worker (module-level cache in the parse
    stage — the Ray analogue of compiling at CREATE TABLE,
    ``data_model.rs:44-50``).
    """

    name: str
    patterns: list[PatternDef]
    columns: list[ColumnDef]

    def __post_init__(self) -> None:
        by_name = {p.name: p for p in self.patterns}
        if len(by_name) != len(self.patterns):
            raise ValueError("duplicate pattern names")
        for c in self.columns:
            for ref in _refs_of(c.parsing):
                if ref.pattern not in by_name:
                    raise ValueError(
                        f"column {c.name!r} references unknown pattern {ref.pattern!r}"
                    )
        col_names = [c.name for c in self.columns]
        if len(set(col_names)) != len(col_names):
            raise ValueError("duplicate column names")

    @property
    def pattern_map(self) -> dict[str, PatternDef]:
        return {p.name: p for p in self.patterns}

    def arrow_schema(self) -> pa.Schema:
        return pa.schema([pa.field(c.name, c.vtype.to_arrow()) for c in self.columns])


def _refs_of(parsing: Parsing) -> Sequence[RegexRef]:
    if isinstance(parsing, RegexCapture):
        return (parsing.ref,)
    if isinstance(parsing, MultiRegex):
        return parsing.refs
    return ()
