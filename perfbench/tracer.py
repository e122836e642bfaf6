"""Per-layer spans and counts, recorded from outside the program.

Each hook wraps one kerrmet function or method.  A timed hook records a
span (name, start, end, parent span) per call; a span's self time is its
duration minus the time its child spans cover, so the self times of one
``main(argv)`` call add up to that call's traced duration.  Count
callbacks derive work counts from the arguments and results seen at the
hook.  Counts named ``*_computed`` are sizes derived from block and
matrix shapes, not measured operation counts.

A function imported with ``from .x import f`` is bound in every module
that imported it, so ``install`` replaces it in all of them; patching only
the defining module would leave callers in other modules unrecorded.  A
target that no longer exists is reported as absent: its metrics are left
out of ``layer_metrics`` rather than failing or reading as zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

CountFn = Callable[[dict, tuple, dict, object], None]


@dataclass(frozen=True)
class Hook:
    name: str
    targets: tuple[tuple[str, str], ...]  # (module, "function" or "Class.method")
    timed: bool = True  # reports self time as f"{name}_s"
    counts: tuple[str, ...] = ()  # counters the callback feeds
    count: CountFn | None = None
    derived: tuple[str, ...] = ()  # computed in layer_metrics from the above

    @property
    def metrics(self) -> tuple[str, ...]:
        return ((f"{self.name}_s",) if self.timed else ()) + self.counts + self.derived


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _increment(metric: str) -> CountFn:
    def count(counts, args, kwargs, result):
        counts[metric] += 1
    return count


def _cache_load(counts, args, kwargs, result):
    counts["cli.cache_misses" if result is None else "cli.cache_hits"] += 1


def _optimize(counts, args, kwargs, result):
    counts["optimizer.evaluations"] += result.evaluations


def _spectral(counts, args, kwargs, result):
    # mirrors _qfi_from_block_pairs: all-zero blocks skip the eigensolve
    for rho_block, _ in _arg(args, kwargs, 0, "pairs", ()):
        if rho_block.any():
            d = rho_block.shape[0]
            counts["estimation.eigensolves"] += 1
            counts["estimation.eig_dim_sum"] += d
            counts["estimation.eig_flops_computed"] += d ** 3


def _profile(counts, args, kwargs, result):
    counts["estimation.profile_terms"] += len(result.freqs)


def _cross_blocks(counts, args, kwargs, result):
    ket = _arg(args, kwargs, 0, "ket_branches")
    bra = _arg(args, kwargs, 1, "bra_branches")
    counts["loss.cross_block_calls"] += 1
    counts["loss.branch_pairs"] += len(ket) * len(bra)
    lists = result if isinstance(result, tuple) else (result,)
    counts["loss.block_bytes_computed"] += sum(
        block.nbytes for blocks in lists for _, block in blocks)


def _lowering_power(counts, args, kwargs, result):
    counts["fock.lowering_powers"] += 1
    counts["fock.dense_bytes_computed"] += result.nbytes


def _operator_check(counts, args, kwargs, result):
    counts["fock.dense_bytes_computed"] += args[0].matrix.nbytes


def _branches(counts, args, kwargs, result):
    counts["interferometer.branch_sets"] += 1
    counts["interferometer.branches"] += len(result)


HOOKS = (
    Hook("cli.main", (("kerrmet.cli", "main"),)),
    Hook("cli.emit", (("kerrmet.cli", "write_csv"),)),
    Hook("cli.cache_load", (("kerrmet.cli", "OptimizeCache.load"),),
         counts=("cli.cache_hits", "cli.cache_misses"), count=_cache_load),
    Hook("cli.cache_store", (("kerrmet.cli", "OptimizeCache.store"),),
         counts=("cli.cache_stores",), count=_increment("cli.cache_stores")),
    Hook("optimizer.optimize", (("kerrmet.optimizer", "optimize_alpha"),),
         counts=("optimizer.evaluations",), count=_optimize, derived=("optimizer.eval_us",)),
    Hook("optimizer.model_build", (("kerrmet.optimizer", "_QuadraticQfiModel.__init__"),),
         counts=("optimizer.model_builds",), count=_increment("optimizer.model_builds")),
    Hook("estimation.max_qfi_over_k", (("kerrmet.estimation", "max_qfi_over_k"),)),
    Hook("estimation.qfi", (("kerrmet.estimation", "PhasedFamily.qfi"),)),
    Hook("estimation.spectral", (("kerrmet.estimation", "_qfi_from_block_pairs"),),
         counts=("estimation.eigensolves", "estimation.eig_dim_sum",
                 "estimation.eig_flops_computed"), count=_spectral),
    Hook("estimation.observable", (("kerrmet.estimation", "measurement_mm"),)),
    Hook("estimation.profile", (("kerrmet.estimation", "PhasedFamily.moment_profile"),),
         counts=("estimation.profile_terms",), count=_profile),
    Hook("estimation.scan", (("kerrmet.estimation", "min_delta_phi"),)),
    Hook("estimation.scan_eval", (("kerrmet.estimation", "MomentProfile.delta_phi"),),
         timed=False, counts=("estimation.scan_evals",),
         count=_increment("estimation.scan_evals")),
    Hook("loss.survival_table", (("kerrmet.loss", "survival_table"),),
         counts=("loss.survival_tables",), count=_increment("loss.survival_tables")),
    Hook("loss.cross_blocks", (("kerrmet.loss", "cross_lossy_blocks"),),
         counts=("loss.cross_block_calls", "loss.branch_pairs",
                 "loss.block_bytes_computed"), count=_cross_blocks),
    Hook("fock.lowering_power", (("kerrmet.fock", "lowering_power"),),
         counts=("fock.lowering_powers", "fock.dense_bytes_computed"),
         count=_lowering_power),
    # the dense Hermiticity (and, for states, PSD eigvalsh) checks
    Hook("fock.operator_check", (("kerrmet.fock", "HermitianOperator.__post_init__"),
                                 ("kerrmet.fock", "DensityOperator.__post_init__")),
         counts=("fock.dense_bytes_computed",), count=_operator_check),
    # called per branch pair inside loops: counted, not timed
    Hook("interferometer.branch_amplitudes",
         (("kerrmet.interferometer", "branch_amplitudes"),),
         timed=False, counts=("interferometer.branch_sets", "interferometer.branches"),
         count=_branches),
)

# the hooks that feed each per-layer metric
METRIC_HOOKS: dict[str, set[str]] = {}
for _hook in HOOKS:
    for _metric in _hook.metrics:
        METRIC_HOOKS.setdefault(_metric, set()).add(_hook.name)


@dataclass
class Tracer:
    spans: list = field(default_factory=list)  # [name, start, end, parent index]
    counts: defaultdict = field(default_factory=lambda: defaultdict(float))
    fired: Counter = field(default_factory=Counter)
    installed: set = field(default_factory=set)
    _open: list = field(default_factory=list)

    def _wrap(self, hook: Hook, fn):
        spans, stack, counts, fired = self.spans, self._open, self.counts, self.fired
        clock = time.perf_counter

        if not hook.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                fired[hook.name] += 1
                hook.count(counts, args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [hook.name, clock(), 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            fired[hook.name] += 1
            if hook.count is not None:
                hook.count(counts, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target that exists; call after ``import kerrmet.cli``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "kerrmet" or name.startswith("kerrmet."))]
        for hook in HOOKS:
            for module_name, path in hook.targets:
                owner = sys.modules.get(module_name)
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if not callable(original):
                    continue
                wrapped = self._wrap(hook, original)
                if cls_path:
                    setattr(owner, attr, wrapped)
                else:
                    for module in modules:
                        for name, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, name, wrapped)
                self.installed.add(hook.name)

    def absent_metrics(self) -> list[str]:
        return [metric for metric, hooks in METRIC_HOOKS.items()
                if not hooks & self.installed]

    def layer_metrics(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_time: defaultdict = defaultdict(float)
        total: defaultdict = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - covered[index]
            total[name] += end - start
        out = {}
        for hook in HOOKS:
            if hook.name not in self.installed:
                continue
            if hook.timed:
                out[f"{hook.name}_s"] = self_time[hook.name]
            for metric in hook.counts:
                out[metric] = float(self.counts[metric])
        if "optimizer.optimize" in self.installed:
            evaluations = out["optimizer.evaluations"]
            # per-evaluation cost includes the spectral step, so it uses the
            # inclusive optimize_alpha time
            out["optimizer.eval_us"] = (1e6 * total["optimizer.optimize"] / evaluations
                                        if evaluations else 0.0)
        return out

    def span_edges(self) -> dict[str, list[float]]:
        """Calls and inclusive seconds per "parent > child" edge."""
        edges: dict[str, list[float]] = {}
        for name, start, end, parent in self.spans:
            key = f"{self.spans[parent][0] if parent is not None else '-'} > {name}"
            entry = edges.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
        return edges
