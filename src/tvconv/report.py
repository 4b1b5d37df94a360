"""Line-oriented key=value reports and aligned text tables.

The on-disk report dialect: one `key=value` per line, `#` starts a comment,
blank lines ignored, keys may be dotted. Values stay strings, except that a
spec dataclass maps to one key per field (`spec_kv` / `spec_from_kv`). Writers
emit keys in insertion order so reports are byte-stable.
"""

from __future__ import annotations

import dataclasses


class KvError(ValueError):
    """Malformed key=value text; message names the file and line."""


def parse_kv(text: str, source: str = "<string>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise KvError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise KvError(f"{source}:{lineno}: empty key")
        if key in out:
            raise KvError(f"{source}:{lineno}: duplicate key '{key}'")
        out[key] = value.strip()
    return out


def format_kv(items: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in items.items())


def spec_kv(spec, **text) -> dict[str, str]:
    """One key per dataclass field, in order; `text` maps a field name to its
    encoder, other fields are written with str()."""
    return {f.name: text.get(f.name, str)(getattr(spec, f.name))
            for f in dataclasses.fields(spec)}


def spec_from_kv(cls, kv: dict[str, str], source: str, **parse):
    """Inverse of spec_kv. Each field is cast by the type of its default
    unless `parse` names a decoder for it; keys that are not fields are
    ignored. A missing key or a value that does not parse raises KvError."""
    values = {}
    for f in dataclasses.fields(cls):
        if f.name not in kv:
            raise KvError(f"{source}: missing key '{f.name}'")
        try:
            values[f.name] = parse.get(f.name, type(f.default))(kv[f.name])
        except ValueError as e:
            raise KvError(f"{source}: key '{f.name}': cannot parse "
                          f"{kv[f.name]!r}") from e
    return cls(**values)


def format_table(headers: list[str], rows: list[list]) -> str:
    """Left-aligned text columns (right-aligned for numeric cells)."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        parts = []
        for i, cell in enumerate(row):
            if r > 0 and _numeric(cell):
                parts.append(cell.rjust(widths[i]))
            else:
                parts.append(cell.ljust(widths[i]))
        lines.append("  ".join(parts).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _fmt(c) -> str:
    if isinstance(c, float):
        return f"{c:.4f}"
    return str(c)


def _numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
