#!/usr/bin/env python3
"""Compare two ``fracvar verify`` CSV files.

    python scripts/csv_diff.py OLD NEW

Rows are keyed by (suite, case_id, alpha), since a run over several orders
(``--alpha 0.3 --alpha 0.6``) repeats the case ids of the single-order
suites.  The CSV is not quoted and a case id may hold commas (the ``chain``
pairings do), so a row is split as the last eight columns, which never do,
and the case id between the suite and them.  Prints, per suite, how many lines moved and the largest relative
move of ``lhs`` and of ``rhs`` (|new - old| / max(|old|, |new|), 0 where both
are 0).  Exits 1 if a key repeats within a file, if the keys or any pass
flag differ, else 0.
"""

from __future__ import annotations

import sys


Key = tuple[str, str, str]


def _rows(text: str) -> tuple[dict[Key, dict[str, str]], list[Key]]:
    """The rows by (suite, case_id, alpha), and the keys that repeat."""
    header, *lines = text.splitlines()
    names = header.split(",")
    tail = len(names) - 2  # the numeric columns after suite and case_id
    rows: dict[Key, dict[str, str]] = {}
    repeated = []
    for line in lines:
        cols = line.split(",")
        row = dict(zip(names, [cols[0], ",".join(cols[1:-tail]), *cols[-tail:]]))
        key = (row["suite"], row["case_id"], row["alpha"])
        if key in rows:
            repeated.append(key)
        rows[key] = row
    return rows, repeated


def _rel_move(old: str, new: str) -> float:
    a, b = float(old), float(new)
    scale = max(abs(a), abs(b))
    return abs(b - a) / scale if scale else 0.0


def diff(old_text: str, new_text: str) -> tuple[list[str], bool]:
    """The report lines, and whether the keys and pass flags agree and no key
    repeats."""
    (old, old_rep), (new, new_rep) = _rows(old_text), _rows(new_text)
    lines = [f"repeated in {name}: {','.join(key)}"
             for name, rep in (("OLD", old_rep), ("NEW", new_rep)) for key in rep]
    same = not lines
    if list(old) != list(new):
        same = False
        lines += [f"only in OLD: {','.join(key)}" for key in old if key not in new]
        lines += [f"only in NEW: {','.join(key)}" for key in new if key not in old]
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
