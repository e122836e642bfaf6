"""Time the input optimizer, ``optimize_alpha(N, 0.9, 0)``, of two source trees.

Each sample imports ``kerrmet`` from one tree's ``src`` in a fresh process
and times one call, which pays the model build and the lazy set-up a CLI
run pays.  ``N = 12`` and ``20`` run with the default restarts and
evaluation budget, ``N = 40`` and ``60`` with ``max_evals=4``, where one
evaluation of the O(N^4) channel map dominates.  ``bench/harness.py``
runs the samples and writes the JSON; each row also holds each tree's
``evaluations``, ``converged`` and ``qfi_star`` (as ``float.hex``, one
value when every sample agrees) and the largest relative difference
between the trees' ``qfi_star`` (``max_rel_diff``).  Run from the
repository root, with a checkout of the commit to compare with:

    python3 bench/optimize.py --baseline ../parent/src --out BENCH_optimize.json
"""

from __future__ import annotations

import json
import sys

from harness import ROOT, compare

# N and the evaluation budget per start (None: the problem's default)
POINTS = ((12, None), (20, None), (40, 4), (60, 4))
REPEATS = 5  # processes per tree, point and thread setting
ETA, CHI = 0.9, 0.0

# one sample: import, time one optimization, report its outcome
_SAMPLE = """
from kerrmet.optimizer import OptimizationProblem, optimize_alpha
fields = json.loads(sys.argv[2])
start = time.perf_counter()
outcome = optimize_alpha(OptimizationProblem(**fields))
seconds = time.perf_counter() - start
values = {"evaluations": outcome.evaluations, "converged": outcome.converged,
          "qfi": outcome.qfi_star.hex()}
"""


def _fields(samples: dict) -> dict:
    """``max_rel_diff``, and per tree the outcome fields: one value when every
    sample agrees, else the list."""
    qfi = {name: [float.fromhex(s["qfi"]) for s in tree] for name, tree in samples.items()}
    own = {"max_rel_diff": max(abs(c - b) / b for b in qfi["baseline"]
                               for c in qfi["change"])}  # the optimum is positive
    for name, tree in samples.items():
        values = {key: list(dict.fromkeys(s[key] for s in tree))
                  for key in ("evaluations", "converged", "qfi")}
        own[name] = {key: v[0] if len(v) == 1 else v for key, v in values.items()}
    return own


def main(argv=None) -> int:
    cases = []
    for n, max_evals in POINTS:
        problem = {"N": n, "eta": ETA, "chi": CHI}
        if max_evals is not None:
            problem["max_evals"] = max_evals
        cases.append(({"problem": problem}, [json.dumps(problem)]))
    header = {"call": f"optimize_alpha(OptimizationProblem(N, {ETA}, {CHI}, ...))",
              "samples": "one fresh process per call, the trees alternating; import not timed"}
    return compare(__doc__, ROOT / "BENCH_optimize.json", _SAMPLE, cases, REPEATS, header,
                   _fields, argv)


if __name__ == "__main__":
    sys.exit(main())
