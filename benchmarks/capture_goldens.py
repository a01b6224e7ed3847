"""Capture the ``paper`` workload goldens from the package in this checkout.

    python3 benchmarks/capture_goldens.py

The goldens pin the stdout of each paper command and the matrix files that
``unitarize`` writes, with the scratch directory written as ``@TMP``. They
were captured once, at the commit that added this benchmark; later changes
to the package must keep reproducing them byte for byte, so do not re-run
this to make a failing check pass.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    if not run.use_source_tree():
        print(f"error: no noonforge sources under {run.SRC}", file=sys.stderr)
        return 2
    tmp_dir = tempfile.mkdtemp()
    try:
        executor = run.Executor("paper", tmp_dir)
        goldens = {}
        for name, argv in workloads.PAPER_COMMANDS.items():
            rc, stdout = executor.run({"name": name, "kind": "cli", "argv": argv})
            if rc != 0:
                raise SystemExit(f"{name} exited with {rc}")
            goldens[name] = {"stdout": stdout.replace(tmp_dir, "@TMP")}
            if "--out" in argv:
                out = argv[argv.index("--out") + 1].replace("@TMP", tmp_dir)
                goldens[name]["written"] = Path(out).read_text()
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    checks.GOLDENS.parent.mkdir(exist_ok=True)
    checks.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} goldens to {checks.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
