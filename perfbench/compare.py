"""Compare two result sets written with ``run.py --out``.

Runs of the two sets are paired in the order they were made (the first
parent run with the first change run, and so on), which is how alternating
runs pair up.  For every workload and end-to-end metric this prints each
side's median and quartiles, the share of pairs each side won, and a
verdict:

* ``improved``: the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile range;
* ``unresolved``: either side's spread (IQR / median) is wider than the
  metric's bound, unless every change run beats every parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from common import quartiles


def load(path: str) -> dict[str, list[dict[str, Any]]]:
    """Untraced records by workload, in the order they were written."""
    runs: dict[str, list[dict[str, Any]]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record.get("trace"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict[str, Any]:
    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    change_won = sum(1 for p, c in pairs if beats(c, p))
    parent_won = sum(1 for p, c in pairs if beats(p, c))
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    worse_by = (pm - cm if better == "higher" else cm - pm) / abs(pm) if pm else 0.0
    if pairs and change_won >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1 and beats(cm, pm):
        label = "improved"
    elif spread > bound and not all(beats(c, p) for c in change for p in parent):
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "unchanged"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "change_won": change_won / len(pairs) if pairs else 0.0,
        "parent_won": parent_won / len(pairs) if pairs else 0.0,
        "verdict": label,
    }


def main(parent_path: str, change_path: str, config: dict[str, Any]) -> int:
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<15} {'metric':<18} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'won p/c':>11}  verdict")
    worse = False
    for workload in sorted(set(parent) & set(change)):
        for entry in config["end_to_end"]:
            name = entry["name"]
            a = [r["metrics"][name]["value"] for r in parent[workload]]
            b = [r["metrics"][name]["value"] for r in change[workload]]
            row = verdict(a, b, entry["better"], entry["bound"])
            worse = worse or row["verdict"] == "worse"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(
                f"{workload:<15} {name:<18} {fmt.format(*row['parent']):>28} "
                f"{fmt.format(*row['change']):>28} "
                f"{row['parent_won']:>5.0%}/{row['change_won']:<5.0%}  {row['verdict']}"
            )
    return 1 if worse else 0
