#!/usr/bin/env bash
# Print one sha256 per deterministic artifact (11 lines) in OUT, a directory
# written by tools/run_artifacts.sh, then the machine the bits depend on
# (OUT/machine.txt: numpy, its BLAS and the OpenBLAS kernel) as one line
# starting with "#". Two directories whose artifacts are bit for bit the
# same, made on one machine, print the same lines.
#
# Usage: tools/artifact_hashes.sh OUT
set -euo pipefail
cd "${1:?usage: tools/artifact_hashes.sh OUT}"
sha256sum run/model.ckpt run/model.ckpt.json run/loss_log.json pred.json trace.json \
          report.json greedy.json paper_run/model.ckpt paper_run/loss_log.json \
          paper_pred.json paper_trace.json
if [ -f machine.txt ]; then
  echo "# $(cat machine.txt)"
fi
