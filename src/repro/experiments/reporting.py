"""Plain-text rendering of experiment results.

The harness functions return dictionaries of rows and series; these helpers
turn them into the aligned text tables printed by the benchmarks and the
examples, so the reproduced numbers can be eyeballed next to the paper's.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Sequence[str], title: str = "",
                 float_format: str = "{:.4f}") -> str:
    """Render a list of row dictionaries as an aligned text table."""
    def cell(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    header = [str(c) for c in columns]
    body = [[cell(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body
              else len(header[i]) for i in range(len(columns))]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
