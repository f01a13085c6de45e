#!/usr/bin/env bash
# Write the deterministic artifacts of two runs made with TREE's src/ on one
# BLAS thread into OUT (which must not exist yet):
#   - the README pipeline (synth, train, caption --beam 5 --trace, eval),
#     plus greedy decoding of every segment (caption --beam 1 --split all);
#   - the paper-shape check: 24 segments of 30 frames and 15 objects, V=40,
#     two epochs at batch 7, caption --split all --beam 5 --trace.
# OUT/machine.txt names what the bits depend on: numpy's version, its BLAS
# build and the kernel OpenBLAS picked at run time (from the bundled
# library's scipy_openblas_get_corename64_, "unknown" where it is absent).
# tools/artifact_hashes.sh OUT prints their hashes, and tools/drift.py
# compares two such directories.
#
# Usage: tools/run_artifacts.sh TREE OUT
set -euo pipefail
tree=$(cd "${1:?usage: tools/run_artifacts.sh TREE OUT}" && pwd)
out=${2:?usage: tools/run_artifacts.sh TREE OUT}
mkdir -p "$(dirname "$out")" && mkdir "$out"
export PYTHONPATH="$tree/src" PYTHONDONTWRITEBYTECODE=1
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
objcap() { python3 -m objcap.cli "$@" > /dev/null; }
cd "$out"

python3 - > machine.txt <<'PY'
import ctypes
import numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (TypeError, KeyError):
    blas = "BLAS unknown"
try:
    path = next(line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line)
    corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    kernel = corename().decode()
except (OSError, StopIteration, AttributeError):
    kernel = "unknown"
print(f"numpy {numpy.__version__}, {blas}, kernel {kernel}")
PY

objcap synth --seed 42 --segments 8 --frames 5 --objects 5 --dim 32 --vocab 12 --out corpus
cat > config.json <<'JSON'
{"train": {"max_epochs": 500, "batch_size": 1, "seed": 3,
           "plateau_patience": 200, "stop_train_loss": 0.005}}
JSON
objcap train --data corpus/manifest.json --config config.json --out run
objcap caption --ckpt run/model.ckpt --data corpus/manifest.json --beam 5 \
               --out pred.json --trace trace.json
objcap eval --pred pred.json --refs corpus/refs.json --out report.json
objcap caption --ckpt run/model.ckpt --data corpus/manifest.json --beam 1 --split all \
               --out greedy.json

objcap synth --seed 11 --segments 24 --frames 30 --objects 15 --dim 32 --vocab 40 --out paper
echo '{"train": {"max_epochs": 2, "batch_size": 7, "seed": 3}}' > paper.json
objcap train --data paper/manifest.json --config paper.json --out paper_run
objcap caption --ckpt paper_run/model.ckpt --data paper/manifest.json --split all --beam 5 \
               --out paper_pred.json --trace paper_trace.json
