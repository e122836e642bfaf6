"""Time the k-scan, ``max_qfi_over_k(N, 0.9, 0)``, of two source trees.

Each measurement is a fresh Python process that imports ``kerrmet`` from
one tree's ``src`` and times one call, so every sample pays the lazy
set-up (the survival table, the first eigensolve) that a CLI run pays;
the import itself is not timed.  The process also reports its peak RSS.
The trees alternate within each repeat, once with one BLAS thread
(``OMP_NUM_THREADS=1`` and the OpenBLAS/MKL equivalents) and once with
the library's default.  The result is written as JSON: per thread
setting and N, each tree's median and quartiles of the call time and its
median peak RSS, the change's median over the baseline's, whether every
sample returned the same bits (``same_result``) and the same k
(``same_k``), and the largest relative difference between the two trees'
values (``max_rel_diff``).

Run from the repository root, against a checkout of the commit to
compare with (a ``git clone`` or ``git archive`` of it):

    python3 bench/kscan.py --baseline ../parent/src --out BENCH_kscan.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (20, 40, 60, 100, 200)
REPEATS = 9  # processes per tree, N and thread setting
ETA, CHI = 0.9, 0.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# one sample: import, time one call, report the call time and the peak RSS
_SAMPLE = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from kerrmet.estimation import max_qfi_over_k
start = time.perf_counter()
k, qfi = max_qfi_over_k(int(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4]))
seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "rss_mb": rss_mb, "k": k, "qfi": qfi.hex()}))
"""


def _sample(src: Path, n: int, threads: str) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    if threads == "1":
        env.update(dict.fromkeys(THREAD_VARS, "1"))
    out = subprocess.run([sys.executable, "-c", _SAMPLE, str(src), str(n), str(ETA), str(CHI)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _commit(src: Path) -> str:
    """The tree's git commit, marked "+changes" when its src differs from it."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=src, text=True,
                              capture_output=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "."], cwd=src,
                               text=True, capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+changes" if dirty else "")


def _blas() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _summary(samples: list[dict]) -> dict:
    seconds = [s["seconds"] for s in samples]
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return {"median_s": median, "q1_s": q1, "q3_s": q3,
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, type=Path,
                        help="the src directory of the tree to compare with")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_kscan.json")
    args = parser.parse_args(argv)
    trees = {"baseline": args.baseline.resolve(), "change": ROOT / "src"}
    results = []
    for threads in ("1", "default"):
        for n in SIZES:
            samples = {name: [] for name in trees}
            for repeat in range(REPEATS):
                order = list(trees) if repeat % 2 == 0 else list(trees)[::-1]
                for name in order:
                    samples[name].append(_sample(trees[name], n, threads))
            values = {s["qfi"] for name in trees for s in samples[name]}
            qfi = {name: [float.fromhex(s["qfi"]) for s in samples[name]] for name in trees}
            row = {"threads": threads, "N": n, "same_result": len(values) == 1,
                   "same_k": len({s["k"] for name in trees for s in samples[name]}) == 1,
                   "max_rel_diff": max(abs(c - b) / b for b in qfi["baseline"]
                                       for c in qfi["change"]),  # the max QFI is positive
                   **{name: _summary(samples[name]) for name in trees}}
            row["change_over_baseline"] = row["change"]["median_s"] / row["baseline"]["median_s"]
            results.append(row)
            print(f"threads={threads} N={n}: {row['baseline']['median_s']:.4f} s -> "
                  f"{row['change']['median_s']:.4f} s, peak RSS "
                  f"{row['baseline']['peak_rss_mb']:.1f} -> {row['change']['peak_rss_mb']:.1f} MB,"
                  f" same result {row['same_result']} (max rel diff {row['max_rel_diff']:.1e})",
                  flush=True)
    report = {
        "call": f"max_qfi_over_k(N, {ETA}, {CHI})",
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
