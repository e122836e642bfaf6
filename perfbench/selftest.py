"""Self-tests of the benchmark itself (about two minutes).

Usage (from the repository root): python3 perfbench/selftest.py

1. A quick-size pass of every workload, untraced and traced, emits every
   metric of BENCHMARK.json with its unit, passes the gate, and fires
   every hook predicted for the workload.
2. A perturbed reference makes every workload report failed rows, so the
   gate can fail; so does a row past the expected ones, and a phi_star
   that does not repeat within a run.
3. The workload seed reaches kerrmet's --seed on the seeded workloads only.
4. A call that misses the filled cache of rescan_cached fails every row.
5. A hook whose target is gone is reported absent and its metrics are left
   out, not read as zero.
6. Without the program's sources the benchmark exits non-zero and prints
   no result.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys

import gate
from run import REFERENCE, ROOT, SRC, WORK, Runner
from tracer import Tracer
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd=ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def report(lines: list[str]) -> dict:
    return json.loads(next(line for line in lines if line.startswith("# report "))[9:])


def quick_reference(name: str) -> list[dict]:
    return json.loads(REFERENCE.read_text())["workloads"][name]["quick"]


@contextlib.contextmanager
def scratch(name: str):
    work = WORK / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_quick_pass_emits_every_metric() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for name, workload in WORKLOADS.items():
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            rc, lines = bench("--workload", name, "--seed", "0", "--trace", str(trace),
                              "--quick")
            assert rc == 0, f"{name} trace {trace}: exit {rc}"
            result = json.loads(lines[-1])
            assert result["correct"] and result["failed"] == 0, (name, report(lines))
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in declared}, (name, units)
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
            if trace:
                info = report(lines)
                assert not info["absent"], (name, info["absent"])
                assert not info["silent_hooks"], (name, info["silent_hooks"])


def test_perturbed_reference_fails() -> None:
    for name, workload in WORKLOADS.items():
        reference = quick_reference(name)
        reference[0]["qfi"] *= 1.0 + 1e-3
        with scratch(name) as work:
            runner = Runner(workload, 0, True, reference, work)
            runner.prepare()
            runner.sample(False)
        assert len(runner.failures) / runner.attempted > 0, name
        assert "vs reference" in runner.failures[0], runner.failures


def test_extra_row_fails() -> None:
    reference = quick_reference("qfi_scan")
    with scratch("extra-row") as work:
        runner = Runner(WORKLOADS["qfi_scan"], 0, True, reference, work)
        runner.prepare()
        runner.sample(False)
        rows = gate.read_rows(work / "out-0.csv")
    assert not runner.failures, runner.failures
    failures = gate.check(rows + rows[-1:], reference, seed=0, seeded=False, rc=0,
                          oracle=None)
    assert len(failures) == 1 and "unexpected extra row" in failures[0], failures


def test_phi_star_must_repeat() -> None:
    # seed 2101's input at N=2, eta=0.9 is not the reference's, so its
    # phi_star is held to the run's first sample instead
    reference = quick_reference("rescan_cached")
    with scratch("phi-star") as work:
        runner = Runner(WORKLOADS["rescan_cached"], 2101, True, reference, work)
        runner.prepare()
        runner.sample(False)
        rows = gate.read_rows(work / "out-0.csv")
    assert not runner.failures, runner.failures
    other = [i for i, (row, ref) in enumerate(zip(rows, reference))
             if row["k_or_alpha_digest"] != ref["k_or_alpha_digest"]]
    assert other, "every input equals the reference's"
    rows[other[0]]["phi_star"] = str(float(rows[other[0]]["phi_star"]) + 0.5)
    failures = gate.check(rows, reference, seed=2101, seeded=True, rc=0, oracle=None,
                          digests=runner.digests, phi_seen=runner.phi_seen)
    assert len(failures) == 1 and "phi_star" in failures[0], failures


def test_seed_reaches_optimizer() -> None:
    for workload in WORKLOADS.values():
        first, second = workload.command(0), workload.command(1)
        if workload.seeded:
            assert first[first.index("--seed") + 1] == "0"
            assert second[second.index("--seed") + 1] == "1"
        else:
            assert first == second and "--seed" not in first
    # the gate checks each row's seed column against the workload seed; at
    # seed 2101 the optimizer's N=2, eta=0.9 input has delta_phi minima tied
    # at 0 and pi/2, and its phi_star differs from the seed-0 reference's
    for name in ("optimize", "rescan_cached"):
        rc, lines = bench("--workload", name, "--seed", "2101", "--trace", "0", "--quick")
        assert rc == 0 and json.loads(lines[-1])["correct"], report(lines)


def test_cache_miss_fails() -> None:
    workload = WORKLOADS["rescan_cached"]
    reference = quick_reference(workload.name)
    with scratch("cache") as work:
        runner = Runner(workload, 0, True, reference, work)
        runner.prepare()
        runner.sample(False)
        assert not runner.failures, runner.failures
        # a deleted entry is a miss: the call recomputes and stores it again
        next((work / "cache").iterdir()).unlink()
        runner.sample(False)
        assert len(runner.failures) == len(reference), runner.failures
        assert all("cache dir changed" in reason for reason in runner.failures)


def test_missing_target_is_absent() -> None:
    sys.path.insert(0, str(SRC))
    import kerrmet.cli  # noqa: F401  (imports every layer the hooks wrap)
    import kerrmet.loss as loss
    original = loss.survival_table
    del loss.survival_table
    try:
        tracer = Tracer()
        tracer.install()
    finally:
        loss.survival_table = original
    metrics = tracer.layer_metrics()
    assert tracer.absent_metrics() == ["loss.survival_table_s", "loss.survival_tables"]
    assert not metrics.keys() & set(tracer.absent_metrics()), metrics.keys()
    assert "loss.cross_blocks_s" in metrics


def test_refuses_without_program() -> None:
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        rc, lines = bench("--workload", "qfi_scan", "--seed", "0", "--trace", "0", cwd=bare)
        assert rc != 0, rc
        assert not any(line.startswith("{") for line in lines), lines
    finally:
        shutil.rmtree(bare)


def main() -> int:
    failed = 0
    for test in (test_quick_pass_emits_every_metric, test_perturbed_reference_fails,
                 test_extra_row_fails, test_phi_star_must_repeat,
                 test_seed_reaches_optimizer, test_cache_miss_fails,
                 test_missing_target_is_absent, test_refuses_without_program):
        try:
            test()
            print(f"PASS  {test.__name__}", flush=True)
        except AssertionError as err:
            failed += 1
            print(f"FAIL  {test.__name__}: {err}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
