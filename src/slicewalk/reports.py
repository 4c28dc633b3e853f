"""Report serialization: versioned JSON and flattened CSV.

Reports are byte-identical across runs with the same config and seed: keys
are sorted, floats use repr (deterministic in Python 3), and wall time is
only included when explicitly requested.
"""
from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from . import __version__

SCHEMA = "slicewalk-report/1"


def reproducibility_stanza(command: str, config: dict, seed: int) -> dict:
    return {"command": command, "config": config, "seed": seed,
            "version": __version__, "schema": SCHEMA}


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if hasattr(obj, "item"):  # numpy scalars
        return _sanitize(obj.item())
    return obj


def to_json(report: dict) -> str:
    return json.dumps(_sanitize(report), sort_keys=True, indent=2) + "\n"


def _flatten(prefix: str, obj, row: dict) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], row)
    elif isinstance(obj, (list, tuple)):
        row[prefix] = ";".join(str(_sanitize(v)) for v in obj)
    else:
        row[prefix] = _sanitize(obj)


def to_csv(records: list[dict]) -> str:
    """One flattened row per record; nested keys become dotted columns.  A
    field holding a comma, quote or line break is quoted (RFC 4180)."""
    rows = []
    columns: list[str] = []
    seen = set()
    for rec in records:
        row: dict = {}
        _flatten("", rec, row)
        rows.append(row)
        for k in row:
            if k not in seen:
                seen.add(k)
                columns.append(k)
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(columns)
    for row in rows:
        out.writerow(["" if row.get(c) is None else str(row.get(c, "")) for c in columns])
    return buf.getvalue()


def emit(text: str, out: str | None) -> None:
    if out is None:
        print(text, end="")
    else:
        Path(out).write_text(text)
