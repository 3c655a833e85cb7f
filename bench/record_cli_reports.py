"""Record the digest of every CLI report the cli workload can draw.

Run from anywhere after an intended change to the CLI's output:

    python3 bench/record_cli_reports.py

It writes bench/cli_reports.json, which maps each argument list (joined by
spaces) to the SHA-256 of the report the command prints.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    Path(workloads.OUT_DIR).mkdir(exist_ok=True)
    digests = {}
    for pool in workloads.CLI_POOL.values():
        for argv in pool:
            code, stdout = workloads.run_cli(argv)
            if code != 0:
                sys.exit(f"{' '.join(argv)} exited with {code}: {stdout}")
            digests[" ".join(argv)] = workloads.report_digest(stdout)
    workloads.CLI_REPORTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"recorded {len(digests)} reports in {workloads.CLI_REPORTS.relative_to(ROOT)}")
