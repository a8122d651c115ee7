#!/usr/bin/env python3
"""Compare two ``fracvar verify`` CSV files.

    python scripts/csv_diff.py OLD NEW

Prints, per suite, how many lines moved and the largest relative move of
``lhs`` and of ``rhs`` (|new - old| / max(|old|, |new|), 0 where both are
0).  Exits 1 if the case ids (suite, case_id) or any pass flag differ, else
0.
"""

from __future__ import annotations

import csv
import io
import sys


def _rows(text: str) -> dict[tuple[str, str], dict[str, str]]:
    return {(row["suite"], row["case_id"]): row for row in csv.DictReader(io.StringIO(text))}


def _rel_move(old: str, new: str) -> float:
    a, b = float(old), float(new)
    scale = max(abs(a), abs(b))
    return abs(b - a) / scale if scale else 0.0


def diff(old_text: str, new_text: str) -> tuple[list[str], bool]:
    """The report lines, and whether the case ids and pass flags agree."""
    old, new = _rows(old_text), _rows(new_text)
    lines, same = [], True
    if list(old) != list(new):
        same = False
        for key in old.keys() - new.keys():
            lines.append(f"only in OLD: {','.join(key)}")
        for key in new.keys() - old.keys():
            lines.append(f"only in NEW: {','.join(key)}")
        if old.keys() == new.keys():
            lines.append("case order differs")
    suites: dict[str, list[int | float]] = {}
    for key in (k for k in new if k in old):
        a, b = old[key], new[key]
        moved = suites.setdefault(key[0], [0, 0, 0.0, 0.0])
        moved[1] += 1
        if a != b:
            moved[0] += 1
            moved[2] = max(moved[2], _rel_move(a["lhs"], b["lhs"]))
            moved[3] = max(moved[3], _rel_move(a["rhs"], b["rhs"]))
        if a["pass"] != b["pass"]:
            same = False
            lines.append(f"pass flag {a['pass']} -> {b['pass']}: {','.join(key)}")
    for suite, (n_moved, n_cases, lhs, rhs) in suites.items():
        lines.append(f"{suite}: {n_moved}/{n_cases} lines moved, "
                     f"max rel move lhs {lhs:.2g}, rhs {rhs:.2g}")
    return lines, same


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: csv_diff.py OLD NEW\n")
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        lines, same = diff(fa.read(), fb.read())
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
