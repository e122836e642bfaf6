"""Record perfbench/reference.json from the current sources.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs one sample of every workload at both sizes with seed 0 and stores
the rows the correctness gate compares against.  Re-record only from a
commit whose outputs are trusted, and say so in the change that does it.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import gate
from run import BLAS_ENV, REFERENCE, ROOT, WORK, Runner, _git_commit
from workloads import WORKLOADS

FIELDS = ("command", "N", "eta", "chi", "k_or_alpha_digest", "qfi",
          "delta_phi_min", "phi_star")


def _value(key: str, text: str):
    if key in ("command", "k_or_alpha_digest"):
        return text
    if key == "N":
        return int(text)
    value = float(text)
    return value if math.isfinite(value) else None


def record(workload, quick: bool) -> list[dict]:
    work = WORK / f"reference-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, 0, quick, reference=[], work=work)
        runner.prepare()
        out = work / "rows.csv"
        result = runner.spawn(runner.argv(out, 0))
        if result["rc"] != 0:
            raise SystemExit(f"{workload.name}: kerrmet exited with {result['rc']}")
        return [{key: _value(key, row[key]) for key in FIELDS}
                for row in gate.read_rows(out)]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    doc = {"recorded_from": {"git_commit": _git_commit(), "seed": 0,
                             "blas_threads": BLAS_ENV["OMP_NUM_THREADS"]},
           "workloads": {name: {"full": record(w, False), "quick": record(w, True)}
                         for name, w in WORKLOADS.items()}}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
