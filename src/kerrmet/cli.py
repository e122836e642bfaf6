"""Experiment driver: desk-scale parameter scans with CSV/JSON output.

Commands
  pure-qfi       analytic vs numerical Fisher information of the lossless family
  qfi-scan       max-over-k Fisher information vs N per loss level, with
                 a fitted log-log slope over the upper half of the N range
  optimize-scan  coefficient optimization per (N, eta), cached
  readout-scan   minimum error-propagation uncertainty of the m-photon
                 coincidence readout (m = N by default)
  single         readout-scan at one fully specified point, plus the
                 readout's mean, variance and delta_phi at --phi

Records carry a fixed column order; re-running a command with the same
configuration and cache reproduces every column byte for byte except
wall_time_ms.  Exit codes: 0 success (including rows flagged
non-converged or degenerate), 2 configuration error, 3 unrecoverable
numerical error (partial results are flushed).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .estimation import (
    DegenerateOperatingPointError,
    PhasedFamily,
    max_qfi_over_k,
    measurement_mm,
    min_delta_phi,
    qfi_pure_analytic,
)
from .fock import NumericalError
from .interferometer import NoonLikeSpec, SuperpositionSpec, superposition_length
from .optimizer import OptimizationOutcome, OptimizationProblem, optimize_alpha, qfi_objective

ALGO_VERSION = 3
KBAR = 1.0  # wave number; phase and displacement uncertainties coincide
COMMANDS = ("pure-qfi", "qfi-scan", "optimize-scan", "readout-scan", "single")
CORE_COLUMNS = ("command", "N", "k_or_alpha_digest", "eta", "chi", "phi_star",
                "qfi", "qcrb", "delta_phi_min", "wall_time_ms", "seed",
                "code_version")
_DEFAULT_RANGES = {
    "pure-qfi": (1, 20, 1),
    "qfi-scan": (10, 100, 10),
    "optimize-scan": (1, 15, 1),
    "readout-scan": (1, 15, 1),
    "single": (1, 1, 1),
}
_DEFAULT_ETAS = {
    "pure-qfi": (1.0,),
    "qfi-scan": (0.9, 1.0),
    "optimize-scan": (0.9, 1.0),
    "readout-scan": (0.9, 1.0),
    "single": (1.0,),
}


# config-file fields that must hold numbers; flags are typed by argparse
_SCALAR_FIELDS = {"chi": float, "phi": float, "k": int, "m": int,
                  "grid_points": int, "seed": int, "max_n": int}


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


@dataclass
class ExperimentConfig:
    command: str
    n_range: tuple[int, ...]
    eta_list: tuple[float, ...]
    chi: float = 1e-8
    phi: float = 0.0
    k: int | None = None
    m: int | None = None
    alpha: tuple[float, ...] | None = None
    grid_points: int = 2001
    seed: int = 0
    out: str | None = None
    cache: str | None = None
    format: str = "csv"
    max_n: int | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not self.n_range:
            raise ConfigError("empty N range")
        if any(n < 1 for n in self.n_range):
            raise ConfigError("N values must be >= 1")
        if not self.eta_list:
            raise ConfigError("empty eta list")
        if any(not 0.0 <= e <= 1.0 for e in self.eta_list):
            raise ConfigError("eta values must lie in [0, 1]")
        if not 0.0 <= self.chi < math.inf:
            raise ConfigError("chi must be finite and non-negative")
        if not math.isfinite(self.phi):
            raise ConfigError("phi must be finite")
        if self.grid_points < 1:
            raise ConfigError("grid_points must be >= 1")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.command == "single" and self.k is None and self.alpha is None:
            raise ConfigError("single needs a fully specified input: --k or alpha")
        if self.m is not None and self.m < 1:
            raise ConfigError("m must be >= 1")
        # the input is chosen per N by k, else alpha, else the optimizer
        uses_k = self.command in ("pure-qfi", "readout-scan", "single")
        uses_alpha = self.command in ("readout-scan", "single") and self.k is None
        for n in self.n_range:
            if uses_k and self.k is not None and not 0 <= self.k <= n:
                raise ConfigError(f"k={self.k} outside [0, {n}]")
            if (uses_alpha and self.alpha is not None
                    and len(self.alpha) != superposition_length(n)):
                raise ConfigError(f"alpha must have {superposition_length(n)} "
                                  f"entries for N={n}, got {len(self.alpha)}")
        if uses_alpha and self.alpha is not None and (
                not any(self.alpha) or not all(map(math.isfinite, self.alpha))):
            raise ConfigError("alpha must be finite and not all zero")

    def echo(self) -> dict:
        # destinations are not part of the experiment: dropping them keeps
        # re-runs byte-identical wherever the files land
        data = asdict(self)
        data.pop("out")
        data.pop("cache")
        data["code_version"] = __version__
        return data


@dataclass
class ResultRecord:
    command: str
    N: int
    k_or_alpha_digest: str
    eta: float
    chi: float
    phi_star: float
    qfi: float
    qcrb: float
    delta_phi_min: float
    wall_time_ms: float
    seed: int
    code_version: str = __version__
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        data = {name: getattr(self, name) for name in CORE_COLUMNS}
        data.update(self.extras)
        return data


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _alpha_digest(alpha) -> str:
    text = ",".join(f"{a:.12e}" for a in alpha)
    return "a:" + hashlib.sha256(text.encode()).hexdigest()[:12]


def _qcrb_or_inf(qfi_value: float) -> float:
    return float(1.0 / np.sqrt(qfi_value)) if qfi_value > 0 else float("inf")


def _grid(config: ExperimentConfig) -> np.ndarray:
    return np.linspace(0.0, np.pi, config.grid_points)


class OptimizeCache:
    """One JSON document per optimization, keyed by a content digest.

    A cache hit is re-validated with one objective evaluation; entries
    that are unreadable, malformed or no longer reproduce their stored
    value are recomputed.  An entry is written to a temporary file and
    renamed into place, so an interrupted run never leaves a partial one.
    """

    def __init__(self, directory: str | Path | None):
        self.directory = Path(directory) if directory else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, problem: OptimizationProblem) -> Path:
        payload = {"N": problem.N, "eta": problem.eta, "chi": problem.chi,
                   "seed": problem.seed,
                   "restarts": problem.restarts, "max_evals": problem.max_evals,
                   "tol": problem.tol, "algo": ALGO_VERSION}
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:24]
        return self.directory / f"opt-{digest}.json"

    def load(self, problem: OptimizationProblem) -> OptimizationOutcome | None:
        if self.directory is None:
            return None
        try:
            data = json.loads(self._path(problem).read_text())
            outcome = OptimizationOutcome(
                alpha_star=tuple(float(a) for a in data["alpha_star"]),
                qfi_star=float(data["qfi_star"]),
                evaluations=int(data["evaluations"]),
                converged=bool(data["converged"]),
                per_restart=[(int(s), float(v)) for s, v in data["per_restart"]])
            check = qfi_objective(np.asarray(outcome.alpha_star), problem)
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if abs(check - outcome.qfi_star) > 1e-9 * max(1.0, abs(outcome.qfi_star)):
            return None
        return outcome

    def store(self, problem: OptimizationProblem, outcome: OptimizationOutcome) -> None:
        if self.directory is None:
            return
        payload = {"alpha_star": list(outcome.alpha_star),
                   "qfi_star": outcome.qfi_star,
                   "evaluations": outcome.evaluations,
                   "converged": outcome.converged,
                   "per_restart": [[s, v] for s, v in outcome.per_restart]}
        path = self._path(problem)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as stream:
                stream.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def get_or_run(self, problem: OptimizationProblem) -> tuple[OptimizationOutcome, bool]:
        cached = self.load(problem)
        if cached is not None:
            return cached, True
        outcome = optimize_alpha(problem)
        self.store(problem, outcome)
        return outcome, False


def run_pure_qfi(config: ExperimentConfig, records: list[ResultRecord]) -> dict:
    for n in config.n_range:
        ks = [config.k] if config.k is not None else range(n + 1)
        for k in ks:
            t0 = time.perf_counter()
            numerical = PhasedFamily(NoonLikeSpec(n, k), chi=config.chi,
                                     eta=1.0).qfi().qfi
            analytic = qfi_pure_analytic(n, k, config.chi)
            if abs(numerical - analytic) > 1e-9 * max(1.0, analytic):
                raise NumericalError(
                    f"pure QFI mismatch at N={n}, k={k}: "
                    f"{numerical!r} vs analytic {analytic!r}")
            records.append(ResultRecord(
                command=config.command, N=n, k_or_alpha_digest=f"k={k}",
                eta=1.0, chi=config.chi, phi_star=config.phi, qfi=numerical,
                qcrb=_qcrb_or_inf(numerical), delta_phi_min=np.nan,
                wall_time_ms=1e3 * (time.perf_counter() - t0), seed=config.seed,
                extras={"qfi_analytic": analytic}))
    return {}


def _loglog_slope(ns, qs) -> float:
    pairs = [(n, q) for n, q in zip(ns, qs) if q > 0]
    if len(pairs) < 2:
        return np.nan
    ns, qs = zip(*pairs)
    return float(np.polyfit(np.log(ns), np.log(qs), 1)[0])


def run_qfi_scan(config: ExperimentConfig, records: list[ResultRecord]) -> dict:
    slopes = {}
    for eta in config.eta_list:
        per_eta = []
        for n in config.n_range:
            t0 = time.perf_counter()
            k_star, qfi_star = max_qfi_over_k(n, eta, config.chi)
            per_eta.append((n, qfi_star))
            records.append(ResultRecord(
                command=config.command, N=n, k_or_alpha_digest=f"k={k_star}",
                eta=eta, chi=config.chi, phi_star=config.phi, qfi=qfi_star,
                qcrb=_qcrb_or_inf(qfi_star), delta_phi_min=np.nan,
                wall_time_ms=1e3 * (time.perf_counter() - t0), seed=config.seed))
        upper = per_eta[len(per_eta) // 2:]
        slopes[eta] = {"slope": _loglog_slope(*zip(*upper)),
                       "n_min": upper[0][0], "n_max": upper[-1][0]}
    return {"loglog_slopes": slopes}


def run_optimize_scan(config: ExperimentConfig, records: list[ResultRecord]) -> dict:
    cache = OptimizeCache(config.cache)
    for eta in config.eta_list:
        for n in config.n_range:
            t0 = time.perf_counter()
            problem = OptimizationProblem(N=n, eta=eta, chi=config.chi,
                                          seed=config.seed)
            outcome, from_cache = cache.get_or_run(problem)
            records.append(ResultRecord(
                command=config.command, N=n,
                k_or_alpha_digest=_alpha_digest(outcome.alpha_star),
                eta=eta, chi=config.chi, phi_star=config.phi,
                qfi=outcome.qfi_star, qcrb=_qcrb_or_inf(outcome.qfi_star),
                delta_phi_min=np.nan,
                wall_time_ms=1e3 * (time.perf_counter() - t0), seed=config.seed,
                extras={"converged": outcome.converged,
                        "evaluations": outcome.evaluations,
                        "cached": from_cache,
                        "alpha_star": json.dumps(list(outcome.alpha_star),
                                                  separators=(",", ":"))}))
    return {}


def _readout_input(config: ExperimentConfig, n: int, eta: float,
                   cache: OptimizeCache):
    if config.k is not None:
        return NoonLikeSpec(n, config.k), f"k={config.k}"
    if config.alpha is not None:
        spec = SuperpositionSpec.normalized(n, config.alpha)
        return spec, _alpha_digest(spec.alpha)
    problem = OptimizationProblem(N=n, eta=eta, chi=config.chi, seed=config.seed)
    outcome, _ = cache.get_or_run(problem)
    return (SuperpositionSpec(n, outcome.alpha_star),
            _alpha_digest(outcome.alpha_star))


def _readout_point(config: ExperimentConfig, n: int, eta: float,
                   cache: OptimizeCache, grid: np.ndarray):
    """One readout-scan row: the m-photon coincidence readout of the input
    at (N, eta), and the moment profile every readout column comes from."""
    t0 = time.perf_counter()
    spec, digest = _readout_input(config, n, eta, cache)
    m = config.m if config.m is not None else n
    family = PhasedFamily(spec, chi=config.chi, eta=eta)
    profile = family.moment_profile(measurement_mm(m, family.basis))
    qfi_value = family.qfi().qfi
    extras = {"m": m, "inv_delta_phi": np.nan, "inv_delta_x": np.nan,
              "status": "ok"}
    try:
        scan = min_delta_phi(profile, grid)
        phi_star = scan.argmin_phi
        best = scan.min_delta_phi
        extras["inv_delta_phi"] = 1.0 / best
        # kbar is fixed to 1, so displacement and phase coincide
        extras["inv_delta_x"] = KBAR / best
    except DegenerateOperatingPointError:
        phi_star, best = np.nan, np.nan
        extras["status"] = "degenerate"
    record = ResultRecord(
        command=config.command, N=n, k_or_alpha_digest=digest,
        eta=eta, chi=config.chi, phi_star=phi_star, qfi=qfi_value,
        qcrb=_qcrb_or_inf(qfi_value), delta_phi_min=best,
        wall_time_ms=1e3 * (time.perf_counter() - t0), seed=config.seed,
        extras=extras)
    return record, profile


def run_readout_scan(config: ExperimentConfig, records: list[ResultRecord]) -> dict:
    cache = OptimizeCache(config.cache)
    grid = _grid(config)
    for eta in config.eta_list:
        for n in config.n_range:
            records.append(_readout_point(config, n, eta, cache, grid)[0])
    return {}


def run_single(config: ExperimentConfig, records: list[ResultRecord]) -> dict:
    """The readout-scan row of the first N and eta, plus the mean, variance
    and delta_phi at --phi read off the same moment profile."""
    record, profile = _readout_point(config, config.n_range[0], config.eta_list[0],
                                     OptimizeCache(config.cache), _grid(config))
    phi = np.atleast_1d(config.phi)
    record.extras.update(mean=float(profile.mean(phi)[0]),
                         variance=float(profile.variance(phi)[0]),
                         delta_phi_at_phi=float(profile.delta_phi(phi)[0]))
    records.append(record)
    return {"config_echo": config.echo()}


_RUNNERS = {
    "pure-qfi": run_pure_qfi,
    "qfi-scan": run_qfi_scan,
    "optimize-scan": run_optimize_scan,
    "readout-scan": run_readout_scan,
    "single": run_single,
}


def write_csv(records: list[ResultRecord], summary: dict,
              config: ExperimentConfig, stream) -> None:
    stream.write(f"# config {json.dumps(config.echo(), sort_keys=True)}\n")
    stream.write(f"# code_version {__version__}\n")
    extra_keys = sorted({key for rec in records for key in rec.extras})
    header = list(CORE_COLUMNS) + extra_keys
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for rec in records:
        data = rec.as_dict()
        writer.writerow([_fmt(data.get(col)) for col in header])
    for key, value in sorted(summary.items()):
        stream.write(f"# {key} {json.dumps(value, sort_keys=True, default=str)}\n")


def write_json(records: list[ResultRecord], summary: dict,
               config: ExperimentConfig, stream) -> None:
    doc = {"config": config.echo(),
           "records": [rec.as_dict() for rec in records],
           "summary": summary}
    json.dump(doc, stream, indent=2, sort_keys=True, default=str)
    stream.write("\n")


def _emit(records, summary, config: ExperimentConfig) -> None:
    writer = write_csv if config.format == "csv" else write_json
    if config.out:
        with open(config.out, "w") as stream:
            writer(records, summary, config, stream)
    else:
        writer(records, summary, config, sys.stdout)


def parse_n_range(text: str) -> tuple[int, ...]:
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError
            if step < 1:
                raise ValueError
            return tuple(range(start, stop + 1, step))
        return (int(text),)
    except ValueError as err:
        raise ConfigError(f"cannot parse N range {text!r}; use A:B:S or a single integer") from err


def parse_eta_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as err:
        raise ConfigError(f"cannot parse eta list {text!r}") from err


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrmet",
        description="Parameter scans for Kerr-nonlinear interferometer metrology")
    parser.add_argument("--command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--n-range", help="A:B:S inclusive range or a single N")
    parser.add_argument("--eta", help="comma-separated transmissivities, e.g. 0.9,1.0")
    parser.add_argument("--chi", type=float)
    parser.add_argument("--phi", type=float)
    parser.add_argument("--k", type=int)
    parser.add_argument("--m", type=int)
    parser.add_argument("--grid-points", type=int, dest="grid_points")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--cache")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--max-n", type=int, dest="max_n")
    return parser


def _check_scalar_types(values: dict) -> None:
    for name, kind in _SCALAR_FIELDS.items():
        value = values.get(name)
        if value is None:
            continue
        ok = isinstance(value, int) if kind is int else isinstance(value, (int, float))
        if isinstance(value, bool) or not ok:
            raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                              f"got {value!r}")


def build_config(argv=None) -> ExperimentConfig:
    args = build_parser().parse_args(argv)
    values: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        values.update(loaded)
    overrides = {
        "command": args.command,
        "n_range": args.n_range,
        "eta_list": args.eta,
        "chi": args.chi,
        "phi": args.phi,
        "k": args.k,
        "m": args.m,
        "grid_points": args.grid_points,
        "seed": args.seed,
        "out": args.out,
        "cache": args.cache,
        "format": args.format,
        "max_n": args.max_n,
    }
    values.update({key: val for key, val in overrides.items() if val is not None})
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    command = values.get("command")
    if command is None:
        raise ConfigError("no command given (flag --command or config file)")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    _check_scalar_types(values)
    if isinstance(values.get("n_range"), str):
        values["n_range"] = parse_n_range(values["n_range"])
    if isinstance(values.get("eta_list"), str):
        values["eta_list"] = parse_eta_list(values["eta_list"])
    if values.get("n_range") is None:
        start, stop, step = _DEFAULT_RANGES[command]
        values["n_range"] = tuple(range(start, stop + 1, step))
    if values.get("eta_list") is None:
        values["eta_list"] = _DEFAULT_ETAS[command]
    try:
        values["n_range"] = tuple(int(n) for n in values["n_range"])
        values["eta_list"] = tuple(float(e) for e in values["eta_list"])
        if values.get("alpha") is not None:
            values["alpha"] = tuple(float(a) for a in values["alpha"])
    except (TypeError, ValueError) as err:
        raise ConfigError(f"n_range, eta_list and alpha must be lists of numbers: {err}") from err
    if values.get("max_n") is not None and values["n_range"]:
        ns = values["n_range"]
        step = ns[1] - ns[0] if len(ns) > 1 else 1
        values["n_range"] = tuple(range(min(ns), values["max_n"] + 1, step))
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    try:
        config = build_config(argv)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    records: list[ResultRecord] = []
    summary: dict = {}
    try:
        summary = _RUNNERS[config.command](config, records)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError, OverflowError,
            np.linalg.LinAlgError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        summary["error"] = str(err)
        _emit(records, summary, config)  # flush whatever completed
        return 3
    _emit(records, summary, config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
