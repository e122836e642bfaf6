"""The bench scripts' A/B loop (bench/harness.py) runs, per thread setting,
case and repeat, one fresh sample per tree, the trees' order alternating,
and writes one row per thread setting and case."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_harness():
    spec = importlib.util.spec_from_file_location("bench_harness", ROOT / "bench" / "harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# argv: src, log; logs the tree and its BLAS thread setting, and takes the
# square of the number of samples run so far as its time
_SAMPLE = """
import os
with open(sys.argv[2], "a") as stream:
    stream.write(json.dumps([sys.argv[1], os.environ.get("OMP_NUM_THREADS")]) + "\\n")
with open(sys.argv[2]) as stream:
    seconds = float(len(stream.readlines()) ** 2)
values = {"tree": sys.argv[1]}
"""


def test_compare_alternates_the_trees_and_reports_each_case(tmp_path):
    harness = _load_harness()
    baseline, change = tmp_path / "src", str(ROOT / "src")
    shutil.copytree(ROOT / "src", baseline, ignore=shutil.ignore_patterns("__pycache__"))
    log, out = tmp_path / "samples.log", tmp_path / "report.json"

    def fields(samples):
        return {"trees_seen": sorted({s["tree"] for tree in samples.values() for s in tree}),
                "change": {"samples": len(samples["change"])}}

    assert harness.compare("Doc.\n\nMore.", tmp_path / "unused.json", _SAMPLE,
                           [({"case": "one"}, [str(log)])], 2, {"call": "test"}, fields,
                           ["--baseline", str(baseline), "--out", str(out)]) == 0

    base = str(baseline.resolve())
    runs = [json.loads(line) for line in log.read_text().splitlines()]
    order = [base, change, change, base]  # repeat 0, then repeat 1 reversed
    assert runs == [[src, "1"] for src in order] + [[src, None] for src in order]
    report = json.loads(out.read_text())
    assert list(report) == ["call", "repeats", "host", "trees", "results"]
    assert report["repeats"] == 2
    assert [row["threads"] for row in report["results"]] == ["1", "default"]
    for row, first in zip(report["results"], (0, 4)):
        assert list(row) == ["threads", "case", "trees_seen", "baseline", "change",
                             "change_over_baseline"]
        assert row["trees_seen"] == sorted({base, change})
        assert list(row["baseline"]) == ["median_s", "q1_s", "q3_s", "peak_rss_mb"]
        assert list(row["change"]) == ["median_s", "q1_s", "q3_s", "peak_rss_mb", "samples"]
        # sample i (from 1) took i^2 s: the baseline ran first and fourth
        assert row["baseline"]["median_s"] == pytest.approx(((first + 1) ** 2 + (first + 4) ** 2) / 2)
        assert row["change"]["median_s"] == pytest.approx(((first + 2) ** 2 + (first + 3) ** 2) / 2)
        assert row["change_over_baseline"] == (row["change"]["median_s"]
                                               / row["baseline"]["median_s"])
