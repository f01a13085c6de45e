"""Smoke run of the benchmark at tiny sizes; exits 1 on any problem.

    python3 perfbench/smoke.py

For every workload, untraced and traced, it runs run.py with ``--smoke``
and checks that the last stdout line has exactly the keys of a result line,
that every end-to-end (untraced) or per-layer (traced) metric named in
BENCHMARK.json is present with its unit, and that no operation failed. It
also checks that the fuller record carries the workload's long-named
metrics. Last, it copies BENCHMARK.json and perfbench/ alone into a scratch
directory and checks that the benchmark fails there without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# long-named metrics each workload's untraced record must carry; the caption
# tail needs eleven samples, which a smoke run need not reach
RECORD = {
    "train_paper_b32": {"setup_s", "peak_rss_mb", "failed_frac", "train_tokens_per_s"},
    "caption_paper_beam5": {"setup_s", "peak_rss_mb", "failed_frac", "caption_segments_per_s",
                            "caption_segment_ms_p50"},
    "pipeline_desk": {"setup_s", "peak_rss_mb", "failed_frac", "train_tokens_per_s",
                      "caption_segments_per_s", "caption_segment_ms_p50"},
}


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    out = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}\n{out.stderr[-2000:]}"]
    lines = out.stdout.strip().splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')} failed={result.get('failed')} "
                        f"{record.get('problems')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != wanted:
        units = [(n, got[n]) for n in wanted if n in got and got[n] != wanted[n]]
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}, units {units}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    lacking = RECORD[workload] - set(record["metrics"]) if not trace else set()
    if lacking:
        problems.append(f"{where}: record lacks {sorted(lacking)}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = run(bare, "pipeline_desk", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return [f"bare directory: exit {out.returncode}, stdout {out.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    found = check_bare_directory()
    print(f"bare directory: {'ok' if not found else 'FAIL'}")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
