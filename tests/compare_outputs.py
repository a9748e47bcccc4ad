"""List where two sheatlab output directories differ.

    python tests/compare_outputs.py DIR_A DIR_B

Manifests (manifest_*.json) are compared without their TIMING_FIELDS, at
any depth; every other file must be byte-identical. A file that differs is
listed, with the largest relative difference |a - b| / max(|a|, |b|) per CSV
column or JSON key (list indices folded into `[]`), the count of values that
differ, the largest roundoff measure |a - b| / max(1, |a|, |b|), which
neither inflates a move near 0 nor hides one in a large log value, and
`text` where a differing value is not a number. Prints nothing for
identical directories. Exit status: 0 if every file is identical, 1
otherwise; the measures do not change it.
"""

import csv
import json
import math
import os
import sys


# the manifest fields that time a run, the only ones two runs may differ in
TIMING_FIELDS = frozenset({"wall_clock_s", "ensemble_s", "sample_steps_per_s", "oracle_s",
                           "march_s", "halving_march_s"})


def untimed(node):
    """A JSON node without its TIMING_FIELDS keys, at any depth."""
    if isinstance(node, dict):
        return {k: untimed(v) for k, v in node.items() if k not in TIMING_FIELDS}
    if isinstance(node, list):
        return [untimed(v) for v in node]
    return node


def _is_manifest(path):
    return os.path.basename(path).startswith("manifest_")


def _json(path):
    """A JSON file's content; a manifest's without its timing fields."""
    with open(path, encoding="utf-8") as fh:
        node = json.load(fh)
    return untimed(node) if _is_manifest(path) else node


def _rel(a, b, floor=0.0):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(floor, abs(a), abs(b))


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

    walk(_json(path), "")
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
        worst, roundoff, n_diff, text = 0.0, None, 0, False
        for x, y in zip(va, vb):
            if x == y:
                continue
            n_diff += 1
            try:
                x, y = _number(x), _number(y)
            except ValueError:
                text = True
                continue
            worst = max(worst, _rel(x, y))
            roundoff = max(roundoff or 0.0, _rel(x, y, floor=1.0))
        if n_diff:
            lines.append(f"  {key}: max rel {worst:.2g} ({n_diff} differ)"
                         + ("" if roundoff is None else
                            f", max |a - b|/max(1, |a|, |b|) {roundoff:.2g}")
                         + (", text" if text else ""))
    return lines


def main(dir_a, dir_b):
    names = {n for d in (dir_a, dir_b) for n in os.listdir(d)}
    same = True
    for name in sorted(names):
        pa, pb = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if not (os.path.exists(pa) and os.path.exists(pb)):
            print(f"{name}: only in {dir_a if os.path.exists(pa) else dir_b}")
            same = False
            continue
        if _is_manifest(pa):
            if _json(pa) == _json(pb):
                continue
        else:
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
