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
non-converged or degenerate), 2 configuration error (a bad flag or value, or a
--config, --out or --cache path that cannot be used, reported before any
work; an --out or stdout that takes no writes, a full device say, is
reported when the rows or the --help text are written, also in place of an
exit 3; a pipe whose reader has closed it ends the run with exit 2 and no
message), 3 unrecoverable numerical error or out of memory (partial results
are flushed).  --help exits 0 once its text is written.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .estimation import (
    DegenerateOperatingPointError,
    PhasedFamily,
    max_qfi_over_k,
    measurement_mm,
    min_delta_phi,
    qfi_over_k,
    qfi_pure_analytic,
)
from .fock import NumericalError, Record
from .interferometer import NoonLikeSpec, SuperpositionSpec, superposition_length
from .optimizer import OptimizationOutcome, OptimizationProblem, optimize_alpha

ALGO_VERSION = 4
KBAR = 1.0  # wave number; phase and displacement uncertainties coincide
FORMATS = ("csv", "json")
CORE_COLUMNS = ("command", "N", "k_or_alpha_digest", "eta", "chi", "phi_star",
                "qfi", "qcrb", "delta_phi_min", "wall_time_ms", "seed",
                "code_version")
# the largest N any command takes: block_offsets' int64 sums t(t+1)(2t+1)
# wrap past N ~ 1.66e6.  Far below it the state no longer fits in memory,
# which ends a run with exit 3
N_MAX = 10 ** 6

class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


class ExperimentConfig(Record):
    command: str
    n_range: tuple[int, ...]
    eta_list: tuple[float, ...]
    chi: float = 1e-8
    phi: float = 0.0
    k: int | None = None
    m: int | None = None
    alpha: tuple[float, ...] | None = None
    seed: int = 0
    out: str | None = None
    cache: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not self.n_range:
            raise ConfigError("empty N range")
        if not all(1 <= n <= N_MAX for n in self.n_range):
            raise ConfigError(f"N values must lie in [1, {N_MAX}]")
        if not self.eta_list:
            raise ConfigError("empty eta list")
        if any(not 0.0 <= e <= 1.0 for e in self.eta_list):
            raise ConfigError("eta values must lie in [0, 1]")
        spread = max(self.n_range) * (1.0 + 0.5 * self.chi * max(self.n_range))  # F <= spread^2
        if not (self.chi >= 0.0 and math.isfinite(spread * spread)):
            raise ConfigError("chi must be >= 0 with (N + chi N^2/2)^2 finite at the largest N")
        if not abs(self.phi) <= 2.0 ** 52:  # from 2^52 on, one ulp of phi reaches 1 rad
            raise ConfigError("phi must be finite with |phi| <= 2^52")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown format {self.format!r}")
        if self.command == "single" and self.k is None and self.alpha is None:
            raise ConfigError("single needs a fully specified input: --k or alpha")
        if self.m is not None and not 1 <= self.m <= N_MAX:
            raise ConfigError(f"m must lie in [1, {N_MAX}]")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
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
        data = {key: value for key, value in vars(self).items() if key not in ("out", "cache")}
        data["code_version"] = __version__
        return data


# per annotated scalar type: the flag's parser, the JSON types a config
# file may give, and the name used in the error
_KINDS = {"str": (str, str, "a string"), "int": (int, int, "an integer"),
          "float": (float, (int, float), "a number")}
# each scalar config field's kind, read off its annotation, and whether it
# may be null ("int | None"); n_range, eta_list and alpha are parsed apart
_SCALAR_FIELDS = {name: (*_KINDS[kind.split(" | ")[0]], kind.endswith("| None"))
                  for name, kind in ExperimentConfig.__annotations__.items() if "tuple" not in kind}


class ResultRecord(Record):
    command: str
    N: int
    k_or_alpha_digest: str
    eta: float
    chi: float
    phi_star: float
    qfi: float
    wall_time_ms: float
    seed: int
    delta_phi_min: float = np.nan  # set by the readout commands
    code_version: str = __version__
    extras: dict

    @property
    def qcrb(self) -> float:
        return 1.0 / math.sqrt(self.qfi) if self.qfi > 0 else math.inf

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


def _row(config: ExperimentConfig, t0: float, **columns) -> ResultRecord:
    """A record with the columns every command takes from the config, timed
    from t0; phi_star is --phi and extras empty unless given."""
    columns = {"phi_star": config.phi, "extras": {}, **columns}
    return ResultRecord(command=config.command, chi=config.chi, seed=config.seed,
                        wall_time_ms=1e3 * (time.perf_counter() - t0), **columns)


class OptimizeCache:
    """One JSON document per optimization, keyed by a content digest.

    A hit is re-validated on the lossy family of its coefficients, which is
    returned with its QFI; unreadable, malformed or stale entries are
    recomputed.  An entry is written to a temporary file and renamed into
    place, so an interrupted run never leaves a partial one.
    """

    def __init__(self, directory: str | Path | None):
        self.directory = Path(directory) if directory else None
        if self.directory is not None:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
            except OSError as err:
                raise ConfigError(f"cache {self.directory} is not a usable directory: "
                                  f"{err.strerror}") from err

    def _path(self, problem: OptimizationProblem) -> Path:
        payload = {**vars(problem), "algo": ALGO_VERSION}
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:24]
        return self.directory / f"opt-{digest}.json"

    def load(self, problem: OptimizationProblem) -> tuple[OptimizationOutcome, tuple] | None:
        """The stored outcome and its checked (family, qfi), or None on a miss."""
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
            family = PhasedFamily(SuperpositionSpec(problem.N, outcome.alpha_star),
                                  chi=problem.chi, eta=problem.eta)
            check = family.qfi().qfi
        except (OSError, ValueError, KeyError, TypeError, OverflowError, NumericalError):
            return None
        # a NaN or infinite stored value would pass a plain "> tol" test
        if not (math.isfinite(outcome.qfi_star)
                and abs(check - outcome.qfi_star) <= 1e-9 * max(1.0, abs(outcome.qfi_star))):
            return None
        return outcome, (family, check)

    def store(self, problem: OptimizationProblem, outcome: OptimizationOutcome) -> None:
        if self.directory is None:
            return
        path = self._path(problem)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as stream:
                stream.write(json.dumps(vars(outcome), sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def get_or_run(self, problem: OptimizationProblem) -> tuple[OptimizationOutcome, tuple | None]:
        hit = self.load(problem)
        if hit is None:
            hit = optimize_alpha(problem), None
            self.store(problem, hit[0])
        return hit


def run_pure_qfi(config: ExperimentConfig, records: list[ResultRecord]) -> dict:
    for n in config.n_range:
        t0 = time.perf_counter()  # one k-scan per N; k and N - k name the same state
        ks = [config.k] if config.k is not None else range(n + 1)
        scanned = sorted({min(k, n - k) for k in ks})
        values = dict(zip(scanned, qfi_over_k(n, 1.0, config.chi, scanned)))
        for k in ks:
            numerical = values[min(k, n - k)]
            analytic = qfi_pure_analytic(n, k, config.chi)
            if abs(numerical - analytic) > 1e-9 * max(1.0, analytic):
                raise NumericalError(
                    f"pure QFI mismatch at N={n}, k={k}: "
                    f"{numerical!r} vs analytic {analytic!r}")
            records.append(_row(config, t0, N=n, k_or_alpha_digest=f"k={k}",
                                eta=1.0, qfi=numerical,
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
            records.append(_row(config, t0, N=n, k_or_alpha_digest=f"k={k_star}",
                                eta=eta, qfi=qfi_star))
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
            outcome, checked = cache.get_or_run(problem)
            records.append(_row(
                config, t0, N=n, k_or_alpha_digest=_alpha_digest(outcome.alpha_star),
                eta=eta, qfi=outcome.qfi_star,
                extras={"converged": outcome.converged,
                        "evaluations": outcome.evaluations,
                        "cached": checked is not None,
                        "alpha_star": json.dumps(list(outcome.alpha_star),
                                                  separators=(",", ":"))}))
    return {}


def _readout_input(config: ExperimentConfig, n: int, eta: float,
                   cache: OptimizeCache) -> tuple[str, PhasedFamily, float]:
    """The input's digest, its family and the family's QFI: a cache hit's
    checked pair, or else a family built here."""
    if config.k is not None:
        spec, digest = NoonLikeSpec(n, config.k), f"k={config.k}"
    elif config.alpha is not None:
        spec = SuperpositionSpec.normalized(n, config.alpha)
        digest = _alpha_digest(spec.alpha)
    else:
        problem = OptimizationProblem(N=n, eta=eta, chi=config.chi, seed=config.seed)
        outcome, checked = cache.get_or_run(problem)
        digest = _alpha_digest(outcome.alpha_star)
        if checked:
            return digest, *checked
        spec = SuperpositionSpec(n, outcome.alpha_star)
    family = PhasedFamily(spec, chi=config.chi, eta=eta)
    return digest, family, family.qfi().qfi


def _readout_point(config: ExperimentConfig, n: int, eta: float,
                   cache: OptimizeCache):
    """One readout-scan row: the m-photon coincidence readout of the input
    at (N, eta) at its best operating point, phi = 0, and the moment
    profile every readout column comes from."""
    t0 = time.perf_counter()
    digest, family, qfi_value = _readout_input(config, n, eta, cache)
    m = config.m if config.m is not None else n
    profile = family.moment_profile(measurement_mm(m, family.basis))
    extras = {"m": m, "inv_delta_phi": np.nan, "inv_delta_x": np.nan,
              "status": "ok"}
    try:
        phi_star, best = 0.0, min_delta_phi(profile)
        extras["inv_delta_phi"] = 1.0 / best
        # kbar is fixed to 1, so displacement and phase coincide
        extras["inv_delta_x"] = KBAR / best
    except DegenerateOperatingPointError:
        phi_star, best = np.nan, np.nan
        extras["status"] = "degenerate"
    record = _row(config, t0, N=n, k_or_alpha_digest=digest, eta=eta,
                  phi_star=phi_star, qfi=qfi_value, delta_phi_min=best, extras=extras)
    return record, profile


def run_readout_scan(config: ExperimentConfig, records: list[ResultRecord]) -> dict:
    cache = OptimizeCache(config.cache)
    for eta in config.eta_list:
        for n in config.n_range:
            records.append(_readout_point(config, n, eta, cache)[0])
    return {}


def run_single(config: ExperimentConfig, records: list[ResultRecord]) -> dict:
    """The readout-scan row of the first N and eta, plus the mean, variance
    and delta_phi at --phi read off the same moment profile."""
    record, profile = _readout_point(config, config.n_range[0], config.eta_list[0],
                                     OptimizeCache(config.cache))
    phi = np.atleast_1d(config.phi)
    record.extras.update(mean=None, variance=None,
                         delta_phi_at_phi=float(profile.delta_phi(phi)[0]))
    # the row is kept, with the moments left empty, when one overflows
    records.append(record)
    record.extras["mean"] = float(profile.mean(phi)[0])
    record.extras["variance"] = float(profile.variance(phi)[0])
    return {"config_echo": config.echo()}


# per command: the runner, and the N range and eta list used when the
# config gives none, written as --n-range and --eta would give them
_COMMANDS = {
    "pure-qfi": (run_pure_qfi, "1:20", "1.0"),
    "qfi-scan": (run_qfi_scan, "10:100:10", "0.9,1.0"),
    "optimize-scan": (run_optimize_scan, "1:15", "0.9,1.0"),
    "readout-scan": (run_readout_scan, "1:15", "0.9,1.0"),
    "single": (run_single, "1", "1.0"),
}
COMMANDS = tuple(_COMMANDS)


def _dumps(value, **kwargs) -> str:
    """Strict JSON: every non-finite float, at any depth, is written as null."""
    text = json.dumps(value, sort_keys=True, default=str, **kwargs)
    return json.dumps(json.loads(text, parse_constant=lambda _: None), **kwargs)


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
        stream.write(f"# {key} {_dumps(value)}\n")


def write_json(records: list[ResultRecord], summary: dict,
               config: ExperimentConfig, stream) -> None:
    doc = {"config": config.echo(),
           "records": [rec.as_dict() for rec in records],
           "summary": summary}
    stream.write(_dumps(doc, indent=2) + "\n")


def _write(out: str | None, write) -> None:
    """write(stream) to the file out, or to stdout when out is empty."""
    try:
        if out:
            with open(out, "w") as stream:
                write(stream)
        else:
            write(sys.stdout)
            sys.stdout.flush()
    except OSError as err:  # a full device, a closed pipe, or a file that takes no writes
        if not out:  # what stays buffered goes nowhere, so the final flush succeeds
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(err, BrokenPipeError):
            raise  # the reader is gone: nothing to report to it
        raise ConfigError(f"output {out or 'stdout'} cannot be written: {err}") from None


def _emit(records, summary, config: ExperimentConfig) -> None:
    writer = write_csv if config.format == "csv" else write_json
    _write(config.out, lambda stream: writer(records, summary, config, stream))


def parse_n_range(text: str) -> tuple[int, ...]:
    try:
        parts = [int(p) for p in text.split(":")]
    except ValueError:
        parts = []
    if len(parts) == 1:  # "N" is N:N
        parts *= 2
    if len(parts) == 2:
        parts.append(1)
    if len(parts) != 3 or parts[2] < 1:
        raise ConfigError(f"cannot parse N range {text!r}; use A:B:S or a single integer")
    start, stop, step = parts
    # the bounds are checked before the range is built: its length is unbounded
    if start < 1 or stop > N_MAX:
        raise ConfigError(f"N values must lie in [1, {N_MAX}], got {text!r}")
    return tuple(range(start, stop + 1, step))


def parse_eta_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as err:
        raise ConfigError(f"cannot parse eta list {text!r}") from err


# each flag's config field and value parser; range and list flags keep their text
_FLAGS = {"--config": ("config", str), "--n-range": ("n_range", str),
          "--eta": ("eta_list", str), **{"--" + name.replace("_", "-"): (name, spec[0])
                                         for name, spec in _SCALAR_FIELDS.items()}}


def parse_flags(argv) -> dict:
    """The fields set by exact --flag value or --flag=value arguments; the last repeat wins."""
    values, args = {}, iter(argv)
    for arg in args:
        flag, equals, text = arg.partition("=")
        if flag not in _FLAGS:
            raise ConfigError(f"unrecognized arguments: {arg}")
        if not equals and (text := next(args, None)) is None:
            raise ConfigError(f"argument {flag}: expected one argument")
        name, kind = _FLAGS[flag]
        try:
            values[name] = kind(text)
        except ValueError:
            raise ConfigError(f"argument {flag}: invalid {kind.__name__} value: {text!r}") from None
    return values


def _coerce_scalars(values: dict) -> None:
    # type-check each scalar field and convert it as its flag's parser would
    for name, (parse, kinds, noun, nullable) in _SCALAR_FIELDS.items():
        value = values.get(name)
        if value is None and (nullable or name not in values):
            continue
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ConfigError(f"{name} must be {noun}, got {value!r}")
        try:
            values[name] = parse(value)
        except OverflowError:
            raise ConfigError(f"{name} is too large for a float") from None


def _read_config_file(path: Path) -> dict:
    try:
        loaded = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    except (OSError, ValueError) as err:
        raise ConfigError(f"config file {path} cannot be read: {err}") from err
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return loaded


def build_config(argv) -> ExperimentConfig:
    values = parse_flags(argv)
    path = values.pop("config", None)
    if path:
        values = {**_read_config_file(Path(path)), **values}
    unknown = set(values) - set(ExperimentConfig.__annotations__)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if values.get("command") is None:
        raise ConfigError("no command given (flag --command or config file)")
    _coerce_scalars(values)
    if values["command"] not in COMMANDS:
        raise ConfigError(f"unknown command {values['command']!r}")
    _, default_ns, default_etas = _COMMANDS[values["command"]]
    for name, parse, default in (("n_range", parse_n_range, default_ns),
                                 ("eta_list", parse_eta_list, default_etas)):
        if values.get(name) is None:
            values[name] = default
        if isinstance(values[name], str):
            values[name] = parse(values[name])
    # list entries are type-checked like the scalar fields: int() and
    # float() would take true as 1, "3" as 3 and truncate 2.7 to N = 2
    for name, noun in (("n_range", "integers"), ("eta_list", "numbers"), ("alpha", "numbers")):
        entries = values.get(name)
        # a string here is alpha's (range strings are parsed above); a dict
        # would pass its keys to int() and float()
        if isinstance(entries, (str, dict)):
            raise ConfigError(f"{name} must be a list of {noun}, got {entries!r}")
        for entry in entries if isinstance(entries, (list, tuple)) else ():
            if isinstance(entry, (bool, str)) or (
                    name == "n_range" and isinstance(entry, float) and not entry.is_integer()):
                raise ConfigError(f"{name} entries must be {noun}, got {entry!r}")
    try:
        values["n_range"] = tuple(int(n) for n in values["n_range"])
        values["eta_list"] = tuple(float(e) for e in values["eta_list"])
        if values.get("alpha") is not None:
            values["alpha"] = tuple(float(a) for a in values["alpha"])
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"n_range, eta_list and alpha must be lists of numbers: {err}") from err
    # a bad destination fails here, before any work, not after the scan
    if values.get("out"):
        out = Path(values["out"])
        try:
            is_dir, parent_is_dir = out.is_dir(), out.parent.is_dir()
        except OSError as err:  # a name too long for the file system
            raise ConfigError(f"output {out} cannot be used: {err}") from None
        if is_dir:
            raise ConfigError(f"output {out} is a directory")
        if not parent_is_dir:
            raise ConfigError(f"output {out}: directory {out.parent} does not exist")
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    records: list[ResultRecord] = []
    summary: dict = {}
    try:
        if "-h" in argv or "--help" in argv:
            _write(None, lambda stream: stream.write(
                f"{__doc__}\nFlags, as --flag value or --flag=value: {' '.join(_FLAGS)}\n"))
            return 0
        config = build_config(argv)
        try:
            summary = _COMMANDS[config.command][0](config, records)
        except (NumericalError, FloatingPointError, OverflowError, MemoryError,
                np.linalg.LinAlgError) as err:
            message = str(err) or type(err).__name__  # a bare MemoryError has no text
            print(f"numerical error: {message}", file=sys.stderr)
            summary["error"] = message
            _emit(records, summary, config)  # flush whatever completed
            return 3
        _emit(records, summary, config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
