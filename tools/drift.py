"""How far two artifact directories written by tools/run_artifacts.sh drift
apart: for the README run and the paper-shape check, the largest relative
difference of each ``loss_log.json`` field over the epochs both logged, and
every caption that differs in ``pred.json``, ``greedy.json`` and
``paper_pred.json``. Prints a report and exits 0 whatever it finds.

Usage: python3 tools/drift.py PARENT_DIR CHANGE_DIR
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RUNS = {"README run": "run/loss_log.json", "paper-shape check": "paper_run/loss_log.json"}
CAPTIONS = ["pred.json", "greedy.json", "paper_pred.json"]


def loss_drift(before: list[dict], after: list[dict]) -> dict[str, float]:
    """Per field, the largest |after - before| / |before| over the epochs
    both logs hold (the absolute difference where ``before`` is 0)."""
    worst: dict[str, float] = {}
    for old, new in zip(before, after):
        for field, value in old.items():
            diff = abs(new[field] - value)
            worst[field] = max(worst.get(field, 0.0), diff / abs(value) if value else diff)
    return worst


def caption_drift(before: dict[str, str], after: dict[str, str]) -> list[tuple[str, str, str]]:
    """(segment id, before, after) for every segment whose caption differs
    or that only one side captioned."""
    return [(sid, before.get(sid, "<missing>"), after.get(sid, "<missing>"))
            for sid in sorted(set(before) | set(after)) if before.get(sid) != after.get(sid)]


def report(parent: Path, change: Path) -> list[str]:
    def read(root: Path, name: str):
        return json.loads((root / name).read_text(encoding="utf-8"))

    lines = []
    for title, name in RUNS.items():
        before, after = read(parent, name), read(change, name)
        lines.append(f"{title}: {len(before)} -> {len(after)} epochs; max relative drift "
                     + ", ".join(f"{field} {value:.3g}"
                                 for field, value in loss_drift(before, after).items()))
    for name in CAPTIONS:
        changed = caption_drift(read(parent, name), read(change, name))
        lines.append(f"{name}: {len(changed)} captions differ" + (":" if changed else ""))
        lines += [f"  {sid}: {old!r} -> {new!r}" for sid, old, new in changed]
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 tools/drift.py PARENT_DIR CHANGE_DIR")
    print("\n".join(report(Path(sys.argv[1]), Path(sys.argv[2]))))
