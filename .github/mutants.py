"""Which one-line faults in the source does the tier-1 suite catch? Prints one markdown line per mutant; never fails.

Each mutant below replaces one piece of text in one file of src/seqcontext. It is applied alone to a temporary copy
of the repository, tier-1 runs there with -x at one BLAS thread, and the line says "caught", with the first failing
test, or "survived". A mutant whose text is not in its file is "not applicable". The unmutated copy runs first and
must pass. The repository itself is never written. Run it with the test dependencies installed:

    python .github/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file, old text, new text, expected): the old text occurs once in the file.
MUTANTS = [
    # the acceptance tolerances, each pinned by a boundary test with literal values
    ("operators.py", "STATE_TOL = 1e-8", "STATE_TOL = 1e-5", "caught"),
    ("ensembles.py", "EQUIVALENCE_TOL = 1e-10", "EQUIVALENCE_TOL = 1e-6", "caught"),
    ("selfcheck.py", "LP_TOL = 1e-9", "LP_TOL = 1e-5", "caught"),
    ("operators.py", "DEFAULT_TOL = 1e-12", "DEFAULT_TOL = 1e-8", "caught"),
    ("sequence.py", "-1e-10 <= p <= 1.0 + 1e-10", "-1e-4 <= p <= 1.0 + 1e-4", "caught"),
    ("sequence.py", "win.min() < -1e-12 or win.max() > 1.0 + 1e-12", "win.min() < -1e-6 or win.max() > 1.0 + 1e-6", "caught"),
    ("selfcheck.py", "SANDWICH_MARGIN = 1e-12", "SANDWICH_MARGIN = 0.0", "caught"),
    ("selfcheck.py", "VISIBILITY_TOL = 1e-9", "VISIBILITY_TOL = 1e-4", "caught"),
    ("selfcheck.py", "(2 * n - 1) * residual", "residual", "caught"),
    # evolve_average takes one state: a stack must be refused by its shape
    ("sequence.py", "_require_dim(state.shape, n)", "_require_dim(state.shape[-2:], n)", "caught"),
    # the dimension search's b + 1, which absorbs the critical chain's rounding
    ("planner.py", "range(max(2, b - 1), b + 2)", "range(max(2, b - 1), b + 1)", "caught"),
    # the anonymous optimum's grid edge
    ("planner.py", "lo = math.asin(1.0 / math.sqrt(n)) + 1e-9", "lo = math.asin(1.0 / math.sqrt(n)) + 1e-3", "caught"),
    # the simplex: ratio ties, reinversion, the final x >= 0 guard and Bland's tie-break
    ("simplex.py", "_RATIO_TIE_TOL = 1e-12", "_RATIO_TIE_TOL = 1e-6", "caught"),
    ("simplex.py", "_REFRESH_INTERVAL = 60", "_REFRESH_INTERVAL = 6000", "caught"),
    ("simplex.py", "if x.min() < -1e-7:", "if x.min() < -1e-1:", "caught"),
    ("simplex.py", "basis[i] < basis[leave]", "basis[i] > basis[leave]", "caught"),
    ("equivalence_lp.py", "PRIMARY_OBJECTIVE_SLACK = 1e-9", "PRIMARY_OBJECTIVE_SLACK = 1e-7", "caught"),
    # the vertex oracle's rank cut: a basis with condition number about 2e4 must count as one
    ("selfcheck.py", "lstsq(a[:, cols], b, rcond=None)", "lstsq(a[:, cols], b, rcond=1e-3)", "caught"),
    # the state check: the Cholesky shift and the Hermitian defect
    ("operators.py", "_frozen((STATE_TOL / 2) * np.eye(dim))", "_frozen((STATE_TOL * 2) * np.eye(dim))", "caught"),
    ("operators.py", "abs(m - m.conj().T)", "abs(m - m.T)", "caught"),
    # the instrument: the outcome sign, the read-only Kraus stack and the clip of p to [0, 1]
    ("sequence.py", "np.array([1.0, -1.0])[:, None, None]", "np.array([-1.0, 1.0])[:, None, None]", "caught"),
    ("sequence.py", "kraus.setflags(write=False)", "kraus.setflags(write=True)", "caught"),
    ("sequence.py", "return min(max(p, 0.0), 1.0)", "return p", "caught"),
    ("sampling.py", "np.clip(table.win, 0.0, 1.0)", "table.win", "caught"),
    ("ensembles.py", "if residual > worst or not worst_r:", "if residual > worst:", "caught"),
    ("cli.py", "SWEEP_MAX_POINTS = 10_000", "SWEEP_MAX_POINTS = 100_000", "caught"),
    # guards that only a wrong LP solve reaches; an optimality certificate would give them a test path
    ("equivalence_lp.py", "PARITY_RESIDUAL_TOL = 1e-8", "PARITY_RESIDUAL_TOL = 1e-2", "survived"),
    ("equivalence_lp.py", "omega.min() < -1e-12 or row_error > 1e-9", "omega.min() < -1e-2 or row_error > 1e-2", "survived"),
    ("simplex.py", "_FEASIBILITY_TOL = 1e-9", "_FEASIBILITY_TOL = 1e-5", "survived"),
]


def tier1(tree: Path) -> str | None:
    """The first failing test of tier-1 run with -x in tree, or None when it passes."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    run = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M)
    return first.group(1) if first else f"pytest exit code {run.returncode}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*_cache", ".bench_*"))
        baseline = tier1(tree)
        if baseline:
            print(f"- Mutants: not run, the unmutated suite fails at {baseline}")
            return
        caught = applicable = 0
        for name, old, new, expected in MUTANTS:
            path = tree / "src" / "seqcontext" / name
            source = path.read_text()
            line = f"{name}: `{old}` → `{new}`"
            if source.count(old) != 1:
                print(f"- not applicable: {line}")
                continue
            path.write_text(source.replace(old, new))
            try:
                failing = tier1(tree)
            finally:
                path.write_text(source)
            outcome = "caught" if failing else "survived"
            applicable += 1
            caught += bool(failing)
            note = "" if outcome == expected else f" (expected {expected})"
            print(f"- {outcome}{note}: {line}" + (f", by `{failing}`" if failing else ""))
        print(f"\nMutants caught by tier-1: {caught} of {applicable}")


if __name__ == "__main__":
    main()
