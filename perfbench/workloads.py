"""The benchmark's workloads: the CLI arguments each one runs and the
layer hooks each one is predicted to fire.

Sizes are chosen so that one ``main(argv)`` call takes 0.1 to two
seconds on a 2-core machine with one BLAS thread; a 28-second run then
holds about 10 to 35 fresh processes for its medians.  ``quick`` sizes
exist only for the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    quick_argv: tuple[str, ...]
    # the optimizer's restart RNG is the only randomness in kerrmet; the
    # deterministic commands are run without --seed
    seeded: bool
    # "fresh": an empty --cache dir per call, so every optimization runs and
    # is stored; "filled": one --cache dir per run, filled before any timing
    # by optimize-scan over the same N, eta and seed, which calls only read
    cache: str | None
    # span and count hooks (see tracer.HOOKS) that must fire on this workload
    hooks: frozenset[str]

    def command(self, seed: int, quick: bool = False) -> list[str]:
        argv = list(self.quick_argv if quick else self.argv)
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv

    def fill_command(self, seed: int, quick: bool = False) -> list[str]:
        argv = self.command(seed, quick)
        argv[argv.index("--command") + 1] = "optimize-scan"
        return argv


_CORE = {"cli.main", "cli.emit", "loss.survival_table", "loss.cross_blocks",
         "estimation.spectral"}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="qfi_scan",
        argv=("--command", "qfi-scan", "--n-range", "20:60:20", "--eta", "0.9"),
        quick_argv=("--command", "qfi-scan", "--n-range", "10:20:10", "--eta", "0.9"),
        seeded=False, cache=None,
        hooks=frozenset(_CORE | {"estimation.max_qfi_over_k", "estimation.qfi",
                                 "interferometer.branch_amplitudes"})),
    Workload(
        name="optimize",
        argv=("--command", "optimize-scan", "--n-range", "3:3:1", "--eta", "0.6"),
        quick_argv=("--command", "optimize-scan", "--n-range", "2:3:1", "--eta", "0.6"),
        seeded=True, cache="fresh",
        hooks=frozenset(_CORE | {"cli.cache_load", "cli.cache_store",
                                 "optimizer.optimize", "optimizer.model_build"})),
    Workload(
        name="readout",
        argv=("--command", "readout-scan", "--n-range", "40:45:5", "--eta", "0.9",
              "--k", "0"),
        quick_argv=("--command", "readout-scan", "--n-range", "10:12:2", "--eta", "0.9",
                    "--k", "0"),
        seeded=False, cache=None,
        hooks=frozenset(_CORE | {"estimation.qfi", "estimation.observable",
                                 "estimation.profile", "estimation.scan",
                                 "estimation.scan_eval", "fock.lowering_power",
                                 "fock.operator_check",
                                 "interferometer.branch_amplitudes"})),
    Workload(
        name="rescan_cached",
        argv=("--command", "readout-scan", "--n-range", "1:4:1", "--eta", "0.6,0.9"),
        quick_argv=("--command", "readout-scan", "--n-range", "1:2:1", "--eta", "0.6,0.9"),
        seeded=True, cache="filled",
        hooks=frozenset(_CORE | {"cli.cache_load", "optimizer.model_build",
                                 "estimation.qfi", "estimation.observable",
                                 "estimation.profile", "estimation.scan",
                                 "estimation.scan_eval", "fock.lowering_power",
                                 "fock.operator_check",
                                 "interferometer.branch_amplitudes"})),
)}
