"""kerrmet benchmark: one workload per invocation, fresh process per sample.

Usage (from the repository root):

    python3 perfbench/run.py --workload qfi_scan --seed 0 --seconds 28 --trace 0

Closed loop with one caller: each sample is a new Python process that
imports ``kerrmet.cli`` and calls ``main(argv)`` once, writing its CSV to
a temp file, with BLAS pinned to one thread.  Samples repeat until
``--seconds`` is used up.  Every row of every sample goes through the
correctness gate.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics.  The last line of stdout is the result
JSON; the lines before it, starting with '#', carry the environment,
sample counts and failure reasons.  Exits non-zero without a result when
the program cannot be found or a sample process breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from tracer import METRIC_HOOKS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SAMPLES = 3
# Other tenants' load on a shared machine moves whole runs by up to 1.5x,
# start-up and compute alike, and no median over samples removes that.
# Starting Python and importing numpy slows with it and involves no kerrmet
# code, so each sample's wall_s and setup_s are scaled by the machine speed
# at which its own process took this long to get there:
STARTUP_REF_S = 0.14
# a run must end within 180 s: start no sample after this, and kill a stuck one
START_LIMIT_S = 120.0
SAMPLE_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


class Runner:
    """Spawns sample processes for one workload and gates their output."""

    def __init__(self, workload, seed: int, quick: bool, reference: list[dict], work: Path):
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.reference = reference
        self.work = work
        self.env = {**os.environ, **BLAS_ENV,
                    "PYTHONPATH": os.pathsep.join(
                        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        self.started = time.monotonic()
        self.samples: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.oracle = None
        self.digests = None  # per reference row: the input the filled cache holds
        self.cache_state = None
        self.phi_seen: dict[int, float] = {}

    def spawn(self, argv, *, trace=False, oracle=(), env=False) -> dict:
        job = {"argv": argv, "trace": trace, "oracle": list(oracle), "env": env,
               "src": str(SRC)}
        job["t_spawn"] = time.monotonic()
        timeout = max(1.0, SAMPLE_TIMEOUT_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"sample exceeded {timeout:.0f} s: {argv}") from err
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"sample process failed ({proc.returncode}): {proc.stderr[-2000:]}")
        return json.loads(lines[-1])

    def prepare(self) -> dict:
        """Warm-up import (fills bytecode and file caches), environment
        record, dominance oracle and cache fill.  None of it is timed."""
        points = [(r["N"], r["eta"], r["chi"]) for r in self.reference
                  if r["command"] == "optimize-scan"]
        info = self.spawn(None, oracle=points, env=True)
        self.oracle = info.get("oracle")
        if self.workload.cache == "filled":
            out = self.work / "fill.csv"
            self.spawn(self.workload.fill_command(self.seed, self.quick)
                       + ["--out", str(out), "--cache", str(self.work / "cache")])
            rows = gate.read_rows(out) if out.exists() else []
            self.digests = [row["k_or_alpha_digest"] for row in rows]
            self.digests += ["(no fill row)"] * (len(self.reference) - len(rows))
            self.cache_state = _snapshot(self.work / "cache")
        return info["env"]

    def argv(self, out: Path, index: int) -> list[str]:
        """kerrmet argv of sample ``index``, writing its CSV to ``out``."""
        argv = self.workload.command(self.seed, self.quick) + ["--out", str(out)]
        if self.workload.cache == "fresh":
            argv += ["--cache", str(self.work / f"cache-{index}")]
        elif self.workload.cache == "filled":
            argv += ["--cache", str(self.work / "cache")]
        return argv

    def sample(self, trace: bool) -> None:
        index = len(self.samples)
        out = self.work / f"out-{index}.csv"
        result = self.spawn(self.argv(out, index), trace=trace)
        result["traced"] = trace
        rows = gate.read_rows(out) if out.exists() else []
        cache_changed = False
        if self.cache_state is not None:
            # a hit neither writes nor touches the entry: any change is a
            # miss or a rewrite
            state = _snapshot(self.work / "cache")
            cache_changed, self.cache_state = state != self.cache_state, state
        self.attempted += max(len(rows), len(self.reference))
        self.failures += gate.check(rows, self.reference, seed=self.seed,
                                    seeded=self.workload.seeded, rc=result["rc"],
                                    oracle=self.oracle, digests=self.digests,
                                    cache_changed=cache_changed, phi_seen=self.phi_seen)
        self.samples.append(result)

    def run(self, seconds: float, trace: bool) -> None:
        start = time.monotonic()
        durations = []
        while True:
            now = time.monotonic()
            typical = statistics.median(durations) if durations else 0.0
            if len(self.samples) >= (2 * MIN_SAMPLES if trace else MIN_SAMPLES) and (
                    now - start + typical > seconds):
                break
            if len(self.samples) >= (2 if trace else 1) and now - self.started > START_LIMIT_S:
                break
            # a traced run alternates untraced and traced samples, so both see
            # the same machine state for the overhead ratio
            self.sample(trace and len(self.samples) % 2 == 1)
            durations.append(time.monotonic() - now)

    def metrics(self, trace: bool) -> tuple[dict, dict, dict]:
        """Metric values, sample counts and the unscaled medians."""
        plain = [s for s in self.samples if not s["traced"]]
        traced = [s for s in self.samples if s["traced"]]
        if not trace:
            raw = {name: statistics.median(s[name] for s in plain)
                   for name in ("wall_s", "setup_s", "peak_rss_mb", "numpy_ready_s")}
            out = {name: statistics.median(s[name] * STARTUP_REF_S / s["numpy_ready_s"]
                                           for s in plain)
                   for name in ("wall_s", "setup_s")}
            out["peak_rss_mb"] = raw["peak_rss_mb"]
            out["pass_frac"] = 1.0 - len(self.failures) / self.attempted
            counts = {name: len(plain) for name in out}
            counts["pass_frac"] = self.attempted
            return out, counts, raw
        # a hook whose target is gone reports nothing, so its metrics are
        # left out rather than read as a drop to zero
        names = traced[0]["layers"].keys()
        out = {name: statistics.median(s["layers"][name] for s in traced) for name in names}
        out["trace.overhead_frac"] = (statistics.median(s["wall_s"] for s in traced)
                                      / statistics.median(s["wall_s"] for s in plain))
        return out, {name: len(traced) for name in out}, {}


def _snapshot(directory: Path) -> dict:
    """Bytes and modification time of every file in ``directory``."""
    paths = sorted(directory.iterdir()) if directory.is_dir() else []
    return {path.name: (path.stat().st_mtime_ns, path.read_bytes()) for path in paths}


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() or "unavailable"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kerrmet" / "cli.py").is_file():
        print(f"no kerrmet sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    size = "quick" if args.quick else "full"
    reference = json.loads(REFERENCE.read_text())["workloads"][workload.name][size]
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, args.seed, args.quick, reference, work)
    try:
        env = runner.prepare()
        runner.run(args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values, counts, raw = runner.metrics(bool(args.trace))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
               if m["name"] in values}
    env.update({"blas_threads": BLAS_ENV, "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)), "git_commit": _git_commit(),
                "workload": workload.name, "size": size, "seed": args.seed,
                "kerrmet_argv": workload.command(args.seed, args.quick)})
    traced = [s for s in runner.samples if s["traced"]]
    report = {"samples": counts, "raw_medians": raw,
              "fail_frac": len(runner.failures) / runner.attempted,
              "failures": runner.failures[:20]}
    if traced:
        report["absent"] = traced[0]["absent"]
        # layers this workload is not predicted to run: their zeros are
        # measured, but no change on this workload is expected to move them
        report["not_applicable"] = [name for name, hooks in METRIC_HOOKS.items()
                                    if not hooks & workload.hooks]
        report["silent_hooks"] = sorted(h for h in workload.hooks
                                        if not all(s["fired"].get(h) for s in traced))
        report["spans"] = traced[-1]["spans"]
    print(f"# env {json.dumps(env)}")
    print(f"# report {json.dumps(report)}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']!r} {metric['unit']} (n={counts[name]})")
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
