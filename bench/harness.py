"""The A/B loop of the bench scripts: run a script's sample code in fresh
processes for two source trees, alternating, and write the result as JSON.

A sample is a fresh ``python -c CODE SRC ARGS...``.  A script's sample code
runs with ``SRC`` first on ``sys.path`` and ``json``, ``sys`` and ``time``
imported; it sets ``seconds`` and may add its own fields to ``values``,
which the sample prints as JSON with its peak RSS (``rss_mb``).
Each case runs with one BLAS thread (``OMP_NUM_THREADS=1`` and the
OpenBLAS/MKL equivalents) and with the default, one sample per tree and
repeat; a row holds each tree's median and quartiles of ``seconds``, its
median peak RSS, and the change's median over the baseline's.
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
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_HEAD = "import json, resource, sys, time\nsys.path.insert(0, sys.argv[1])\nvalues = {}\n"
_TAIL = """
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "rss_mb": rss_mb, **values}))
"""


def _sample(code: str, src: Path, args: list[str], threads: str) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    if threads == "1":
        env.update(dict.fromkeys(THREAD_VARS, "1"))
    out = subprocess.run([sys.executable, "-c", _HEAD + code + _TAIL, str(src), *args],
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


def compare(doc: str, out: Path, code: str, cases, repeats: int, header: dict,
            fields=None, argv=None) -> int:
    """Parse ``--baseline`` and ``--out`` (default ``out``), run ``code`` for
    each (row fields, sample args) of ``cases`` and write ``header`` and the
    rows.  ``fields(samples)`` gives the script's own row fields from each
    tree's samples; its "baseline" and "change" entries join those trees'."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, type=Path,
                        help="the src directory of a checkout (git clone or git archive) "
                             "of the commit to compare with")
    parser.add_argument("--out", type=Path, default=out)
    args = parser.parse_args(argv)
    trees = {"baseline": args.baseline.resolve(), "change": ROOT / "src"}
    results = []
    for threads in ("1", "default"):
        for case, sample_args in cases:
            samples = {name: [] for name in trees}
            for repeat in range(repeats):
                for name in list(trees) if repeat % 2 == 0 else list(trees)[::-1]:
                    samples[name].append(_sample(code, trees[name], sample_args, threads))
            own = fields(samples) if fields else {}
            summaries = {name: {**_summary(samples[name]), **own.pop(name, {})} for name in trees}
            ratio = summaries["change"]["median_s"] / summaries["baseline"]["median_s"]
            row = {"threads": threads, **case, **own, **summaries, "change_over_baseline": ratio}
            results.append(row)
            print(f"threads={threads} {json.dumps(case)}: {row['baseline']['median_s']:.4g} s -> "
                  f"{row['change']['median_s']:.4g} s, peak RSS {row['baseline']['peak_rss_mb']:.1f}"
                  f" -> {row['change']['peak_rss_mb']:.1f} MB", flush=True)
    report = {
        **header,
        "repeats": repeats,
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "blas": _blas(),
                 "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "trees": {name: _commit(src) for name, src in trees.items()},
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0
