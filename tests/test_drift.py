"""``tools/drift.py`` on two small artifact directories."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import drift  # noqa: E402


def write(root, name, value):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value), encoding="utf-8")


def test_report_names_loss_drift_and_every_changed_caption(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    log = [{"epoch": 0, "lr": 0.001, "train_loss": 2.0, "val_loss": 0.0},
           {"epoch": 1, "lr": 0.001, "train_loss": 1.0, "val_loss": 3.0}]
    moved = [{"epoch": 0, "lr": 0.001, "train_loss": 2.0, "val_loss": 1e-20},
             {"epoch": 1, "lr": 0.001, "train_loss": 1.5, "val_loss": 3.0}]
    for root, run in ((parent, log), (change, moved)):
        write(root, "run/loss_log.json", run)
        write(root, "paper_run/loss_log.json", log)
        write(root, "greedy.json", {"a": "x y"})
        write(root, "paper_pred.json", {"a": "x"})
    write(parent, "pred.json", {"a": "x y", "b": "z"})
    write(change, "pred.json", {"a": "x w", "c": "z"})

    assert drift.loss_drift(log, moved) == {"epoch": 0.0, "lr": 0.0, "train_loss": 0.5,
                                            "val_loss": 1e-20}
    lines = drift.report(parent, change)
    assert lines[0] == ("README run: 2 -> 2 epochs; max relative drift epoch 0, lr 0, "
                        "train_loss 0.5, val_loss 1e-20")
    assert lines[1].startswith("paper-shape check: 2 -> 2 epochs") and "train_loss 0," in lines[1]
    assert lines[2:] == ["pred.json: 3 captions differ:",
                         "  a: 'x y' -> 'x w'",
                         "  b: 'z' -> '<missing>'",
                         "  c: '<missing>' -> 'z'",
                         "greedy.json: 0 captions differ",
                         "paper_pred.json: 0 captions differ"]
