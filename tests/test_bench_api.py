"""The objcap API that the benchmark harness in ``perfbench/`` calls, held
to what the harness expects: a rename or a regrown graph that would break
or skew a traced benchmark run fails here, and not only in the benchmark's
smoke run. The harness is read from ``perfbench/``, never changed."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from objcap import model

from test_tape_size import paper_segment_counts

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# every objcap module, imported so the tracer finds each reference it wraps
MODULES = ["objcap." + name for name in ("captioner", "cli", "data", "interaction", "layers",
                                         "metrics", "model", "tensor", "trainer")]


def resolve(mod_name: str, attr: str):
    target = importlib.import_module(f"objcap.{mod_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    return target


@pytest.mark.parametrize("name", sorted(tracing.TRACED))
def test_traced_entry_resolves_to_a_function(name):
    assert callable(resolve(*tracing.TRACED[name]))


def bindings() -> dict:
    """Every attribute of every objcap module, and ``Tensor``'s own
    attributes, by holder and name."""
    from objcap.tensor import Tensor

    holders = [sys.modules[name] for name in MODULES] + [Tensor]
    return {(holder.__name__, key): value
            for holder in holders for key, value in list(vars(holder).items())}


def test_install_wraps_every_entry_and_uninstall_puts_every_original_back():
    for name in MODULES:
        importlib.import_module(name)
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = bindings()
        for name, (mod_name, attr) in tracing.TRACED.items():
            owner, _, key = attr.rpartition(".")
            holder = owner or f"objcap.{mod_name}"
            assert wrapped[(holder, key)] is not before[(holder, key)], name
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_segment_context_records_the_interaction_inside_it():
    """``interaction.forward_ms_per_segment`` reads the interaction's spans,
    which are caught only while ``segment_context`` calls
    ``interaction_sequence`` through the name the tracer wraps."""
    m = model.init_model(model.ModelConfig(vocab_size=5), seed=0)
    rng = np.random.default_rng(0)
    image = rng.normal(size=(2, 32))
    objects = [rng.normal(size=(n, 32)) for n in (3, 0)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model.segment_context(m, image, objects)
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s is not None]
    names = [s[0] for s in spans]
    assert names.count("model.segment_context") == 1
    assert names.count("interaction.interaction_sequence") == 1
    inner = spans[names.index("interaction.interaction_sequence")]
    assert spans[inner[3]][0] == "model.segment_context"


def test_tape_node_counts_agree_with_the_tape_bounds_test():
    counts = tracing.tape_node_counts()
    tape = paper_segment_counts()
    assert counts["interaction.tape_nodes_per_forward"] == tape["interaction"]
    assert counts["tensor.tape_nodes_per_segment"] == tape["segment"]


@pytest.mark.parametrize("eos_nudge, cap", [(-50.0, 7), (0.02, 6), (0.05, 6), (0.0, 30)],
                         ids=["never-finishes", "carries-finished", "ends-early", "paper-cap"])
def test_traced_beam_search_runs_one_decode_step_per_beam_step(eos_nudge, cap, monkeypatch):
    """``captioner.decode_step_ms``, ``decode_steps_per_segment`` and
    ``beam_kept_ratio`` read the ``decode_step`` spans under
    ``beam_search``; a search that stepped its decoder any other way would
    read 0 there. Each ``beam_select`` call ends one beam step."""
    from objcap import captioner

    steps = []
    select = captioner.beam_select

    def counted(*args):
        steps.append(1)
        return select(*args)

    monkeypatch.setattr(captioner, "beam_select", counted)
    m = model.init_model(model.ModelConfig(vocab_size=1000), seed=5)
    m.captioner.out_b.data[captioner.EOS_ID] += eos_nudge
    rng = np.random.default_rng(5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _ in range(3):
            ctx, _ = model.segment_context(m, rng.normal(size=(4, 32)),
                                           [rng.normal(size=(3, 32)) for _ in range(4)])
            captioner.beam_search(m.captioner, ctx, 5, max_words=cap)
    finally:
        tracer.uninstall()
    in_beam = tracing.span_stats(tracer.spans)["captioner.decode_step@beam"]
    assert in_beam["calls"] == len(steps) > 0
    assert in_beam["incl_s"] > 0
