"""List where two sheatlab output directories differ.

    python tests/compare_outputs.py DIR_A DIR_B

Manifests (manifest_*.json) are skipped: they hold wall-clock fields. Every
other file that is not byte-identical is listed, with the largest relative
difference |a - b| / max(|a|, |b|) per CSV column or JSON key (list indices
folded into `[]`), the count of values that differ, and `text` where a
differing value is not a number. Prints nothing for identical directories.
Exit status: 0 if every file is identical, 1 otherwise.
"""

import csv
import json
import math
import os
import sys


def _rel(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _fields(path):
    """{column or key path: [values]} of one CSV or JSON file."""
    out = {}
    if path.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                for column, cell in row.items():
                    out.setdefault(column, []).append(cell)
        return out

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key + "[]")
        else:
            out.setdefault(key, []).append(node)

    with open(path, encoding="utf-8") as fh:
        walk(json.load(fh), "")
    return out


def _number(value):
    if isinstance(value, bool) or value is None:
        raise ValueError(value)
    return float(value)


def compare(path_a, path_b):
    """Lines describing each field of two files that differs."""
    a, b = _fields(path_a), _fields(path_b)
    lines = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, []), b.get(key, [])
        if len(va) != len(vb):
            lines.append(f"  {key}: {len(va)} against {len(vb)} values")
            continue
        worst, n_diff, text = 0.0, 0, False
        for x, y in zip(va, vb):
            if x == y:
                continue
            n_diff += 1
            try:
                worst = max(worst, _rel(_number(x), _number(y)))
            except ValueError:
                text = True
        if n_diff:
            lines.append(f"  {key}: max rel {worst:.2g} ({n_diff} differ)"
                         + (", text" if text else ""))
    return lines


def main(dir_a, dir_b):
    names = {n for d in (dir_a, dir_b) for n in os.listdir(d)
             if not n.startswith("manifest_")}
    same = True
    for name in sorted(names):
        pa, pb = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if not (os.path.exists(pa) and os.path.exists(pb)):
            print(f"{name}: only in {dir_a if os.path.exists(pa) else dir_b}")
            same = False
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() == fb.read():
                continue
        same = False
        print(name)
        for line in compare(pa, pb):
            print(line)
    return 0 if same else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
