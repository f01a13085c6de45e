"""Resident-memory high-water of one paper-shape training step at batch 32,
and of a checkpoint round trip of the stepped model.

Builds the benchmark's seed-1 ``train_paper_b32`` corpus, takes the batch of
32 that ``trainer.train`` steps first, and runs its forward
(``model.batch_nll``) and backward in this process on one BLAS thread. It
prints the process's ``ru_maxrss`` before the forward, after the forward and
after the backward, and then every backward node that raised it, by the op
that recorded the node, with the high-water after it. ``tracemalloc`` sees
only what numpy allocates, not how the heap grows; this reads what the
benchmark's ``peak_rss_mb`` reads.

It then takes one ADAM step and hands the model, its vocabulary and its
ADAM state to a second process, and prints that process's ``ru_maxrss``
before a ``trainer.save_checkpoint``, after it and after the
``trainer.load_checkpoint`` of the file written. Linux carries the
high-water across fork and exec, so that process is started before this
one imports numpy, and waits for the state on its stdin.

Usage: python3 tools/step_rss.py [--root TREE]

``TREE`` (default: this checkout) is the tree whose ``src/objcap`` and
``perfbench`` corpus generator are imported, so the script can measure
another commit's code, e.g. a worktree of the parent.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"   # before numpy loads

import pickle  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402

# the second process: argv is the src/ to import and the checkpoint path
# to write; stdin brings the pickled (model, vocabulary, ADAM state)
ROUND_TRIP = """
import pickle, resource, sys
sys.path.insert(0, sys.argv[1])
from objcap import trainer
def rss(when):
    print(f"  {when}: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
mdl, vocab, adam = pickle.load(sys.stdin.buffer)
rss("before save_checkpoint")
trainer.save_checkpoint(sys.argv[2], mdl, vocab, adam, trainer.TrainConfig())
rss("after save_checkpoint")
trainer.load_checkpoint(sys.argv[2])
rss("after load_checkpoint")
"""


def max_rss_mb() -> float:
    """The process's resident-memory high-water, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def op_name(backward) -> str:
    """The op that recorded a node, from its backward closure's name."""
    return backward.__qualname__.split(".<locals>")[0]


def watch_backward(root) -> list[tuple[str, float]]:
    """Wrap the backward of every node under ``root`` so that each one that
    raises the high-water appends (op, MB) to the returned list."""
    raised: list[tuple[str, float]] = []
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        todo.extend(node._prev)
        if node._backward is None:
            continue

        def watched(out, backward=node._backward):
            before = max_rss_mb()
            backward(out)
            after = max_rss_mb()
            if after > before:
                raised.append((op_name(backward), after))

        node._backward = watched
    return raised


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    args = ap.parse_args(argv)
    root = args.root.resolve()
    with tempfile.TemporaryDirectory() as tmp, subprocess.Popen(
            [sys.executable, "-c", ROUND_TRIP, str(root / "src"), str(Path(tmp) / "model.ckpt")],
            stdin=subprocess.PIPE) as round_trip:
        state = step(root)
        round_trip.communicate(pickle.dumps(state))
    return round_trip.returncode


def step(root: Path) -> tuple:
    """Print the high-water of the first batch's forward and backward, take
    one ADAM step and return (model, vocabulary, ADAM state)."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import numpy as np
    from objcap import data, model, trainer
    from objcap.tensor import collector_paused
    from workloads import SIZES, paper_corpus

    seed, sizes = 1, SIZES["full"]["train_paper_b32"]
    with tempfile.TemporaryDirectory() as tmp:
        manifest = paper_corpus(seed, Path(tmp), sizes["train_segments"],
                                sizes["val_segments"], sizes["vocab_words"],
                                cover_train_vocab=True)
        dataset = data.load_manifest(manifest)
    vocab = data.build_vocab([c for seg in dataset.train for c in seg.captions])
    mdl = model.init_model(model.ModelConfig(vocab_size=vocab.size), seed=seed)
    items = [(seg, data.encode_caption(vocab, cap))
             for seg in dataset.train for cap in seg.captions]
    order = np.random.default_rng(seed + 1).permutation(len(items))
    batch = [items[i] for i in order[:sizes["batch"]]]

    print(f"step_rss: {root}, seed {seed}, batch of {len(batch)}, V={vocab.size}")
    print(f"RSS before forward: {max_rss_mb():.1f} MB")
    with collector_paused():
        rows, tokens = model.batch_nll(mdl, batch)
        loss = rows.sum() * (1.0 / tokens)
        print(f"RSS after forward: {max_rss_mb():.1f} MB")
        raised = watch_backward(loss)
        loss.backward()
    print(f"RSS after backward: {max_rss_mb():.1f} MB")
    for op, mb in raised:
        print(f"  raised by {op}: {mb:.1f} MB")

    params = mdl.named_parameters()
    adam = trainer.adam_step(params, {n: p.grad for n, p in params.items()},
                             trainer.AdamState(), lr=1e-3)
    for p in params.values():
        p.zero_grad()
    print(f"RSS of a checkpoint round trip of the stepped model, V={vocab.size}, "
          f"in a second process:", flush=True)
    return mdl, vocab, adam


if __name__ == "__main__":
    sys.exit(main())
