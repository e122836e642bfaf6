"""Time the input optimizer, ``optimize_alpha(N, 0.9, 0)``, of two source trees.

Each measurement is a fresh Python process that imports ``kerrmet`` from
one tree's ``src`` and times one call, so every sample pays the model
build and the lazy set-up a CLI run pays; the import itself is not timed.
``N = 12`` and ``20`` run with the default restarts and evaluation budget,
``N = 40`` and ``60`` with ``max_evals=4``, where one evaluation of the
O(N^4) channel map dominates.  The process also reports its peak RSS.
The trees alternate within each repeat, once with one BLAS thread
(``OMP_NUM_THREADS=1`` and the OpenBLAS/MKL equivalents) and once with
the library's default.  The result is written as JSON: per thread setting
and N, each tree's median and quartiles of the call time and its median
peak RSS, the change's median over the baseline's, each tree's
``evaluations``, ``converged`` and ``qfi_star`` (as ``float.hex``, one
value when every sample agrees), and the largest relative difference
between the two trees' ``qfi_star`` (``max_rel_diff``).

Run from the repository root, against a checkout of the commit to
compare with (a ``git clone`` or ``git archive`` of it):

    python3 bench/optimize.py --baseline ../parent/src --out BENCH_optimize.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from kscan import THREAD_VARS, _blas, _commit, _summary

ROOT = Path(__file__).resolve().parent.parent
# N and the evaluation budget per start (None: the problem's default)
POINTS = ((12, None), (20, None), (40, 4), (60, 4))
REPEATS = 5  # processes per tree, point and thread setting
ETA, CHI = 0.9, 0.0

# one sample: import, time one optimization, report it and the peak RSS
_SAMPLE = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from kerrmet.optimizer import OptimizationProblem, optimize_alpha
fields = json.loads(sys.argv[2])
start = time.perf_counter()
outcome = optimize_alpha(OptimizationProblem(**fields))
seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "rss_mb": rss_mb, "evaluations": outcome.evaluations,
                  "converged": outcome.converged, "qfi": outcome.qfi_star.hex()}))
"""


def _sample(src: Path, fields: dict, threads: str) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    if threads == "1":
        env.update(dict.fromkeys(THREAD_VARS, "1"))
    out = subprocess.run([sys.executable, "-c", _SAMPLE, str(src), json.dumps(fields)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _outcome(samples: list[dict]) -> dict:
    """The tree's outcome fields: one value when every sample agrees, else the list."""
    out = {}
    for key in ("evaluations", "converged", "qfi"):
        values = list(dict.fromkeys(s[key] for s in samples))
        out[key] = values[0] if len(values) == 1 else values
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, type=Path,
                        help="the src directory of the tree to compare with")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_optimize.json")
    args = parser.parse_args(argv)
    trees = {"baseline": args.baseline.resolve(), "change": ROOT / "src"}
    results = []
    for threads in ("1", "default"):
        for n, max_evals in POINTS:
            fields = {"N": n, "eta": ETA, "chi": CHI}
            if max_evals is not None:
                fields["max_evals"] = max_evals
            samples = {name: [] for name in trees}
            for repeat in range(REPEATS):
                order = list(trees) if repeat % 2 == 0 else list(trees)[::-1]
                for name in order:
                    samples[name].append(_sample(trees[name], fields, threads))
            qfi = {name: [float.fromhex(s["qfi"]) for s in samples[name]] for name in trees}
            row = {"threads": threads, "problem": fields,
                   "max_rel_diff": max(abs(c - b) / b for b in qfi["baseline"]
                                       for c in qfi["change"]),  # the optimum is positive
                   **{name: {**_summary(samples[name]), **_outcome(samples[name])}
                      for name in trees}}
            row["change_over_baseline"] = row["change"]["median_s"] / row["baseline"]["median_s"]
            results.append(row)
            print(f"threads={threads} N={n}: {row['baseline']['median_s']:.3f} s -> "
                  f"{row['change']['median_s']:.3f} s, peak RSS "
                  f"{row['baseline']['peak_rss_mb']:.1f} -> {row['change']['peak_rss_mb']:.1f} MB,"
                  f" evaluations {row['baseline']['evaluations']} -> "
                  f"{row['change']['evaluations']} (max rel diff {row['max_rel_diff']:.1e})",
                  flush=True)
    report = {
        "call": f"optimize_alpha(OptimizationProblem(N, {ETA}, {CHI}, ...))",
        "samples": "one fresh process per call, the trees alternating; import not timed",
        "repeats": REPEATS,
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "blas": _blas()},
        "trees": {name: _commit(src) for name, src in trees.items()},
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
