#!/usr/bin/env bash
# Tracked counts under forced OpenBLAS kernels, appended to $GITHUB_STEP_SUMMARY; never fails.
# For each kernel: how many of the recorded report digests in bench/cli_reports.json one in-process
# pass over bench/workloads.CLI_POOL reproduces. Run from the repository root:
#   GITHUB_STEP_SUMMARY=summary.md bash .github/kernel_counts.sh
for core in Haswell Prescott; do
  OPENBLAS_CORETYPE=$core OPENBLAS_NUM_THREADS=1 python - <<'EOF' >> "$GITHUB_STEP_SUMMARY" || true
import json, os, sys
from pathlib import Path

sys.path[:0] = ["src", "bench"]
import workloads

Path(workloads.OUT_DIR).mkdir(exist_ok=True)  # some calls write their CSV there
expected = json.loads(workloads.CLI_REPORTS.read_text())
argvs = [argv for pool in workloads.CLI_POOL.values() for argv in pool]
match = sum(workloads.report_digest(workloads.run_cli(argv)[1]) == expected[" ".join(argv)] for argv in argvs)
core = os.environ["OPENBLAS_CORETYPE"]
print(f"- OPENBLAS_CORETYPE={core}, cli reports matching bench/cli_reports.json: {match} of {len(argvs)}")
EOF
done
