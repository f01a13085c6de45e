"""objcap benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports objcap from ``src/`` there
and from nowhere else. With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. The line before it is a fuller record: the workload's own
metrics under their long names, sample counts and the environment.
``--smoke`` shrinks every input so a run proves only that each metric is
produced (see smoke.py). Metric definitions are in README.md. Times in the
result are calibrated to nominal machine speed (calibrate.py); the record
also carries them as measured.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # one BLAS thread, set before numpy loads

import time

START = time.perf_counter()     # set-up time counts from here

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILDREN = 8              # set-up is measured in these fresh processes too
SETUP_REF_WARMUP = 5            # reference samples discarded before set-up's own
UNTRACED_SHARE = 1 / 3          # of a traced run, measured without tracing


def import_objcap():
    src = ROOT / "src"
    if not (src / "objcap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no objcap sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import objcap
    if Path(objcap.__file__).resolve().parent != (src / "objcap").resolve():
        sys.exit(f"perfbench: objcap imported from {objcap.__file__}, not {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_setup_seconds(args) -> tuple[float, float]:
    """Set-up time of a fresh process, imports included, and the reference
    time it sampled right after set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    done = json.loads(out.stdout.strip().splitlines()[-1])
    return done["setup_s"], done["ref_ms"]


def setup_ref_ms() -> float:
    """Machine speed right after set-up: median of three reference samples,
    taken after a warm-up so that a fresh process's first numpy calls do
    not count."""
    import calibrate
    for _ in range(SETUP_REF_WARMUP):
        calibrate.reference_ms()
    return statistics.median(calibrate.reference_ms() for _ in range(3))


def run_loop(w, seconds: float) -> None:
    """Closed loop: passes run back to back until ``seconds`` of timed calls."""
    budget_end = w.tally.busy_s + seconds
    wall_end = time.perf_counter() + 2 * seconds + 60
    while w.tally.busy_s < budget_end and time.perf_counter() < wall_end:
        try:
            w.run_pass()
        except Exception:  # an unexpected failure costs one operation, not the run
            traceback.print_exc(file=sys.stderr)
            w.tally.attempted += 1
            w.tally.fail(1, "pass raised")


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": "smoke" if args.smoke else "full",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux


def e2e_metrics(t, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "tokens_per_s": (t.tokens / t.busy_s, "1/s"),
        "op_ms_p50": (statistics.median(t.op_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def workload_metrics(t, setup_samples=None) -> dict:
    """The workload's own metrics under their long names, where they apply."""
    out = {"peak_rss_mb": (peak_rss_mb(), "MB"),
           "failed_frac": (t.failed / max(t.attempted, 1), "1")}
    if setup_samples:
        out["setup_s"] = (statistics.median(setup_samples), "s")
    if t.train_calls:
        out["train_tokens_per_s"] = (t.train_tokens / t.train_s, "1/s")
    if t.caption_segments:
        out["caption_segments_per_s"] = (t.caption_segments / t.caption_s, "1/s")
        out["caption_segment_ms_p50"] = (statistics.median(t.caption_ms), "ms")
        high = tail(t.caption_ms)
        if high is not None:
            out["caption_segment_ms_tail"] = (high[0], "ms")
            out["caption_segment_tail_percentile"] = (high[1], "%")
    return out


def per_layer_metrics(stats: dict, nodes: dict, vocab_size: int, beam_width: int,
                      untraced, traced) -> dict:
    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def mean_ms(name, key="incl_s"):
        n = calls(name)
        return 1e3 * stats[name][key] / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    beams = calls("captioner.beam_search")
    in_beam = stats["captioner.decode_step@beam"]
    beam_ms = mean_ms("captioner.beam_search")
    decode_ms = ratio(1e3 * in_beam["incl_s"], beams)
    steps = ratio(in_beam["calls"], beams)
    candidates = steps * vocab_size
    rate_a = untraced.tokens / untraced.busy_s
    rate_b = traced.tokens / traced.busy_s
    m = {
        "tensor.backward_ms": (mean_ms("tensor.backward", "self_s"), "ms"),
        "interaction.forward_ms_per_segment": (mean_ms("interaction.interaction_sequence"), "ms"),
        "model.segment_context_ms_per_segment": (mean_ms("model.segment_context"), "ms"),
        "layers.lstm_step_calls": (ratio(calls("layers.lstm_step"),
                                         calls("model.segment_context")), "count"),
        "layers.lstm_step_ms": (mean_ms("layers.lstm_step", "self_s"), "ms"),
        "layers.mlp_forward_ms": (mean_ms("layers.mlp_forward", "self_s"), "ms"),
        "captioner.teacher_forced_ms_per_segment":
            (mean_ms("captioner.forward_teacher_forced"), "ms"),
        "captioner.beam_ms_per_segment": (beam_ms, "ms"),
        "captioner.decode_step_ms": (decode_ms, "ms"),
        "captioner.beam_select_ms": (beam_ms - decode_ms, "ms"),
        "captioner.decode_steps_per_segment": (steps, "count"),
        "captioner.candidates_scored_per_segment": (candidates, "count"),
        "captioner.beam_kept_ratio": (ratio(beam_width, candidates), "ratio"),
        "trainer.adam_step_ms": (mean_ms("trainer.adam_step", "self_s"), "ms"),
        "trainer.checkpoint_save_ms": (mean_ms("trainer.save_checkpoint"), "ms"),
        "trainer.checkpoint_load_ms": (mean_ms("trainer.load_checkpoint"), "ms"),
        "data.synth_ms": (mean_ms("data.synth_dataset"), "ms"),
        "data.load_manifest_ms": (mean_ms("data.load_manifest"), "ms"),
        "metrics.evaluate_ms": (mean_ms("metrics.evaluate_captions"), "ms"),
        "trace.overhead_pct": (100.0 * (rate_a / rate_b - 1.0), "%"),
        "trace.tokens_per_s_delta": (rate_b - rate_a, "1/s"),
        "trace.op_ms_p50_delta": (statistics.median(traced.op_ms)
                                  - statistics.median(untraced.op_ms), "ms"),
    }
    m.update({name: (count, "count") for name, count in nodes.items()})
    return m


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_objcap()
    import calibrate
    import tracing
    import workloads
    from workloads import Tally

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    sizes = workloads.SIZES["smoke" if args.smoke else "full"][args.workload]
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    speed = calibrate.SpeedLog()
    tracer = tracing.Tracer(speed.clock) if args.trace else None
    w = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir, speed, tracer)
    try:
        if tracer:
            tracer.install()
        w.setup()
        setup_s = time.perf_counter() - START
        setup_ref = setup_ref_ms()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "ref_ms": setup_ref}))
            return 0
        if tracer:
            tracer.uninstall()
            with speed.sampling():
                run_loop(w, args.seconds * UNTRACED_SHARE)
                untraced, w.tally = w.tally, Tally()
                tracer.install()
                run_loop(w, args.seconds * (1 - UNTRACED_SHARE))
                w.finish()
                tracer.uninstall()
                w.check()
            untraced, traced = untraced.calibrated(speed), w.tally.calibrated(speed)
            nodes = tracing.tape_node_counts()
            metrics = per_layer_metrics(tracing.span_stats(tracer.spans), nodes,
                                        w.vocab_size, workloads.BEAM, untraced, traced)
            (HERE / "out").mkdir(exist_ok=True)
            tracer.write(HERE / "out" / f"trace_{args.workload}_seed{args.seed}.json")
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            problems = untraced.problems + traced.problems
            record = {"spans": len(tracer.spans),
                      "untraced": as_json(workload_metrics(untraced)),
                      "traced": as_json(workload_metrics(traced))}
            samples = {"untraced_ops": len(untraced.op_ms), "traced_ops": len(traced.op_ms),
                       "ref_samples": len(speed.ref_ms)}
        else:
            setup_runs = [(setup_s, setup_ref)] + [child_setup_seconds(args)
                                                   for _ in range(SETUP_CHILDREN)]
            # one factor for all set-up samples: a single process's reference
            # samples scatter more than set-up times do
            setup_factor = calibrate.NOMINAL_REF_MS / statistics.median(r for _, r in setup_runs)
            setup_samples = [s * setup_factor for s, _ in setup_runs]
            with speed.sampling():
                run_loop(w, args.seconds)
                w.finish()
                w.check()
            measured, t = w.tally, w.tally.calibrated(speed)
            metrics = e2e_metrics(t, statistics.median(setup_samples))
            attempted, failed, problems = t.attempted, t.failed, t.problems
            record = {"metrics": as_json(workload_metrics(t, setup_samples)),
                      "uncalibrated": as_json(workload_metrics(measured,
                                                               [s for s, _ in setup_runs])),
                      "setup_samples_s": setup_samples,
                      "setup_wall_s_ref_ms": setup_runs,
                      "ref_ms": calibrate.summary(speed)}
            samples = {"ops": len(t.op_ms), "train_calls": t.train_calls,
                       "caption_segments": t.caption_segments, "setup": len(setup_samples)}
    finally:
        w.cleanup()

    record.update({"env": environment(args), "samples": samples, "sizes": sizes,
                   "problems": problems})
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
