"""Time the command-line driver's start-up and two benchmark argvs, for two
source trees.

Each measurement is a fresh Python process that imports numpy, then
``kerrmet.cli`` from one tree's ``src``, and times one of:

- ``import``: the import of ``kerrmet.cli`` itself;
- ``build_config``: flag parsing and validation of the readout argv;
- ``readout``: ``main(argv)`` on ``readout-scan --n-range 40:45:5 --eta 0.9 --k 0``;
- ``qfi_scan``: ``main(argv)`` on ``qfi-scan --n-range 20:60:20 --eta 0.9``.

The process also reports its peak RSS.  Output goes to ``os.devnull``.
Bytecode caching follows the environment (``PYTHONDONTWRITEBYTECODE`` is
recorded), so with it set every sample compiles ``src``.  The trees
alternate within each repeat, once with one BLAS thread and once with the
library's default.  The result is written as JSON: per thread setting and
measurement, each tree's median and quartiles and its median peak RSS,
and the change's median over the baseline's.

Run from the repository root, against a checkout of the commit to
compare with (a ``git clone`` or ``git archive`` of it):

    python3 bench/cli.py --baseline ../parent/src --out BENCH_cli.json
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
REPEATS = 21  # processes per tree, measurement and thread setting
READOUT = ["--command", "readout-scan", "--n-range", "40:45:5", "--eta", "0.9", "--k", "0"]
QFI_SCAN = ["--command", "qfi-scan", "--n-range", "20:60:20", "--eta", "0.9"]
# per measurement: the kerrmet.cli function timed after the import and its
# argv, or None to time the import
MEASURES = {"import": None, "build_config": ("build_config", READOUT),
            "readout": ("main", READOUT), "qfi_scan": ("main", QFI_SCAN)}

# one sample: import, time the import or one call, report it and the peak RSS
_SAMPLE = """
import json, os, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy
start = time.perf_counter()
import kerrmet.cli as cli
seconds = time.perf_counter() - start
job = json.loads(sys.argv[2])
if job is not None:
    call, argv = job
    start = time.perf_counter()
    result = getattr(cli, call)(argv + ["--out", os.devnull])
    seconds = time.perf_counter() - start
    if call == "main" and result != 0:
        sys.exit(f"main returned {result}")
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "rss_mb": rss_mb}))
"""


def _sample(src: Path, job, threads: str) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    if threads == "1":
        env.update(dict.fromkeys(THREAD_VARS, "1"))
    out = subprocess.run([sys.executable, "-c", _SAMPLE, str(src), json.dumps(job)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, type=Path,
                        help="the src directory of the tree to compare with")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cli.json")
    args = parser.parse_args(argv)
    trees = {"baseline": args.baseline.resolve(), "change": ROOT / "src"}
    results = []
    for threads in ("1", "default"):
        for measure, job in MEASURES.items():
            samples = {name: [] for name in trees}
            for repeat in range(REPEATS):
                order = list(trees) if repeat % 2 == 0 else list(trees)[::-1]
                for name in order:
                    samples[name].append(_sample(trees[name], job, threads))
            row = {"threads": threads, "measure": measure,
                   "argv": None if job is None else job[1],
                   **{name: _summary(samples[name]) for name in trees}}
            row["change_over_baseline"] = row["change"]["median_s"] / row["baseline"]["median_s"]
            results.append(row)
            print(f"threads={threads} {measure}: {1e3 * row['baseline']['median_s']:.2f} ms -> "
                  f"{1e3 * row['change']['median_s']:.2f} ms, peak RSS "
                  f"{row['baseline']['peak_rss_mb']:.1f} -> {row['change']['peak_rss_mb']:.1f} MB",
                  flush=True)
    report = {
        "samples": "one fresh process per measurement, the trees alternating; numpy is "
                   "imported first and not timed",
        "repeats": REPEATS,
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "blas": _blas(),
                 "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "trees": {name: _commit(src) for name, src in trees.items()},
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
