import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrmet.cli import (
    COMMANDS,
    FORMATS,
    N_MAX,
    ConfigError,
    ExperimentConfig,
    OptimizeCache,
    build_config,
    main,
    parse_eta_list,
    parse_flags,
    parse_n_range,
)
from kerrmet import estimation, optimizer
from kerrmet.estimation import PhasedFamily
from kerrmet.interferometer import SuperpositionSpec
from kerrmet.optimizer import OptimizationProblem


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    rows = list(csv.DictReader(body))
    return comments, rows


def body_without_timing(path):
    comments, rows = read_csv(path)
    for row in rows:
        row.pop("wall_time_ms")
    return comments, rows


def test_parse_n_range():
    assert parse_n_range("1:5:2") == (1, 3, 5)
    assert parse_n_range("4:6") == (4, 5, 6)
    assert parse_n_range("7") == (7,)
    with pytest.raises(ConfigError):
        parse_n_range("abc")
    with pytest.raises(ConfigError):
        parse_n_range("1:5:0")


def test_parse_eta_list():
    assert parse_eta_list("0.9,1.0") == (0.9, 1.0)
    with pytest.raises(ConfigError):
        parse_eta_list("0.9,x")


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(command="nope", n_range=(1,), eta_list=(1.0,))
    with pytest.raises(ConfigError):
        ExperimentConfig(command="pure-qfi", n_range=(), eta_list=(1.0,))
    with pytest.raises(ConfigError):
        ExperimentConfig(command="pure-qfi", n_range=(1,), eta_list=(1.5,))
    with pytest.raises(ConfigError):
        ExperimentConfig(command="single", n_range=(2,), eta_list=(1.0,))


def test_config_file_with_flag_override(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(
        {"command": "pure-qfi", "n_range": "2:3", "chi": 0.5, "seed": 9}))
    config = build_config(["--config", str(config_file), "--chi", "0.125"])
    assert config.command == "pure-qfi"
    assert config.n_range == (2, 3)
    assert config.chi == 0.125  # flag wins
    assert config.seed == 9


def test_unknown_config_field_rejected(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"command": "pure-qfi", "bogus": 1}))
    with pytest.raises(ConfigError):
        build_config(["--config", str(config_file)])


def test_missing_command_is_config_error():
    assert main([]) == 2


def test_pure_qfi_records(tmp_path):
    out = tmp_path / "pure.csv"
    code = main(["--command", "pure-qfi", "--n-range", "1:6:1",
                 "--chi", "0.1", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == sum(n + 1 for n in range(1, 7))
    for row in rows:
        qfi = float(row["qfi"])
        analytic = float(row["qfi_analytic"])
        assert abs(qfi - analytic) <= 1e-9 * max(1.0, analytic)
        qcrb = float(row["qcrb"])
        if qfi > 0:
            assert qcrb == pytest.approx(1 / math.sqrt(qfi), rel=1e-12)
        else:
            assert math.isinf(qcrb)


def test_pure_qfi_scans_each_state_once(tmp_path, monkeypatch):
    # each N's rows come from one k-scan over k <= N/2 (k and N - k name the
    # same state), and a single --k scans only that k
    import kerrmet.cli as cli

    scanned = []
    scan = cli.qfi_over_k

    def recording(n, eta, chi, ks):
        scanned.append((n, eta, list(ks)))
        return scan(n, eta, chi, ks)

    monkeypatch.setattr(cli, "qfi_over_k", recording)
    out = tmp_path / "pure.csv"
    assert main(["--command", "pure-qfi", "--n-range", "4:5", "--out", str(out)]) == 0
    assert scanned == [(4, 1.0, [0, 1, 2]), (5, 1.0, [0, 1, 2])]
    _, rows = read_csv(out)
    assert [row["k_or_alpha_digest"] for row in rows] == [f"k={k}" for k in
                                                          [*range(5), *range(6)]]
    scanned.clear()
    assert main(["--command", "pure-qfi", "--n-range", "7:8", "--k", "5",
                 "--out", str(out)]) == 0
    assert scanned == [(7, 1.0, [2]), (8, 1.0, [3])]


def test_qfi_scan_leaves_numpy_ma_unimported(tmp_path):
    # a benchmark sample times the first main call of a fresh process, where
    # numpy.ma's first import (np.unique's, say) alone takes about 15 ms
    import kerrmet

    env = dict(os.environ, PYTHONPATH=str(Path(kerrmet.__file__).parents[1]))
    argv = ["--command", "qfi-scan", "--n-range", "20:60:20", "--eta", "0.9",
            "--out", str(tmp_path / "scan.csv")]
    script = ("import sys\nfrom kerrmet.cli import main\n"
              f"code = main({argv!r})\nprint(code, 'numpy.ma' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == ["0", "False"]


def test_single_photon_interferometer_record(tmp_path):
    out = tmp_path / "single.csv"
    code = main(["--command", "single", "--n-range", "1", "--k", "0",
                 "--chi", "0", "--m", "1", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    (row,) = rows
    assert float(row["qfi"]) == pytest.approx(1.0, rel=1e-12)
    assert float(row["qcrb"]) == pytest.approx(1.0, rel=1e-12)
    assert float(row["delta_phi_min"]) == pytest.approx(1.0, rel=1e-9)


def test_single_near_balanced_moments(tmp_path):
    out = tmp_path / "single3.csv"
    code = main(["--command", "single", "--n-range", "3", "--k", "1",
                 "--chi", "0", "--m", "1", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    (row,) = rows
    assert float(row["mean"]) == pytest.approx(0.0, abs=1e-12)
    assert float(row["variance"]) == pytest.approx(7.0, abs=1e-10)


def test_single_lossy_matches_brute_force(tmp_path):
    out = tmp_path / "single2.csv"
    code = main(["--command", "single", "--n-range", "2", "--k", "0",
                 "--eta", "0.5", "--chi", "0", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    (row,) = rows
    # closed form N^2 eta^N for the k=0 family
    assert float(row["qfi"]) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("alpha, plain", [
    ([1e-200, 0.0], [1.0, 0.0]),  # the squared weight underflows to 0
    ([1e200, 1e200], [1.0, 1.0]),  # it overflows to inf
    ([1e-160, 0.0], [1.0, 0.0]),  # it is subnormal
])
def test_single_alpha_of_any_finite_size(tmp_path, alpha, plain):
    # alpha is normalized after an exact power-of-two rescale: any finite,
    # nonzero size gives the row of the same direction at unit size.  The
    # rescaled entries keep their own mantissas, so the normalized alpha may
    # differ from the plain one in its last bit: same digest, and every
    # number within a few ulp
    rows = []
    for name, values in (("scaled", alpha), ("plain", plain)):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"alpha": values}))
        out = tmp_path / f"{name}.csv"
        assert main(["--command", "single", "--n-range", "2", "--eta", "0.9",
                     "--config", str(config), "--out", str(out)]) == 0
        (row,) = body_without_timing(out)[1]
        rows.append(row)
    assert rows[0].keys() == rows[1].keys()
    for key, value in rows[0].items():
        try:
            number = float(value)
        except ValueError:
            assert value == rows[1][key], key
        else:
            assert number == pytest.approx(float(rows[1][key]), rel=1e-14, abs=0.0), key


def test_single_matches_dense_oracle(tmp_path):
    # single reads its point columns off the moment profile; the dense
    # state and the pointwise delta_phi are the independent check
    import oracle
    from kerrmet.estimation import measurement_mm
    from kerrmet.interferometer import NoonLikeSpec

    n, k, eta, m, phi, chi = 4, 1, 0.8, 2, 0.3, 0.05
    out = tmp_path / "single_lossy.csv"
    code = main(["--command", "single", "--n-range", str(n), "--k", str(k),
                 "--eta", str(eta), "--m", str(m), "--phi", str(phi),
                 "--chi", str(chi), "--out", str(out)])
    assert code == 0
    (row,) = read_csv(out)[1]
    family = PhasedFamily(NoonLikeSpec(n, k), chi=chi, eta=eta)
    obs = measurement_mm(m, family.basis)
    rho = oracle.rho(family, phi)
    mean = oracle.expectation(rho, obs)
    dense = oracle.dense(obs).matrix
    square = oracle.DenseOperator(obs.basis, dense @ dense)
    second = oracle.expectation(rho, square)
    assert float(row["mean"]) == pytest.approx(mean, rel=1e-10)
    assert float(row["variance"]) == pytest.approx(second - mean * mean, rel=1e-10)
    assert float(row["delta_phi_at_phi"]) == pytest.approx(
        oracle.delta_phi(family, obs, phi), rel=1e-10)


def test_qfi_scan_emits_slopes(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["--command", "qfi-scan", "--n-range", "2:10:4",
                 "--eta", "0.9,1.0", "--out", str(out)])
    assert code == 0
    comments, rows = read_csv(out)
    assert len(rows) == 6
    assert any("loglog_slopes" in c for c in comments)
    for row in rows:
        assert row["k_or_alpha_digest"].startswith("k=")


def test_readout_scan_lossless_noon(tmp_path):
    out = tmp_path / "readout.csv"
    code = main(["--command", "readout-scan", "--n-range", "1:4:1",
                 "--eta", "1.0", "--k", "0", "--chi", "1e-8", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    for row in rows:
        n = int(row["N"])
        want = n + 1e-8 * n * n / 2
        assert float(row["inv_delta_phi"]) == pytest.approx(want, rel=1e-6)
        assert float(row["delta_phi_min"]) >= float(row["qcrb"]) - 1e-9


def test_readout_scan_near_balanced_single_photon_counting(tmp_path):
    # k = (N-1)/2 input read out at m = 1: 1/delta_phi = C1 theta / sqrt(A)
    out = tmp_path / "readout_m1.csv"
    code = main(["--command", "readout-scan", "--n-range", "5", "--k", "2",
                 "--eta", "1.0", "--m", "1", "--chi", "0", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    (row,) = rows
    n = 5
    a = (n * n + 2 * n - 1) / 2
    c1 = (n + 1) / 2
    assert float(row["inv_delta_phi"]) == pytest.approx(c1 / math.sqrt(a), rel=1e-9)


def assert_flat_rows_report_smallest_phi(out):
    _, rows = read_csv(out)
    assert rows and [row["phi_star"] for row in rows] == ["0.0"] * len(rows)
    for row in rows:
        assert float(row["delta_phi_min"]) == pytest.approx(float(row["qcrb"]), rel=1e-9)
        # Var O does not cancel at phi = 0, so the bound holds to round-off
        assert float(row["delta_phi_min"]) >= float(row["qcrb"]) * (1 - 1e-14)


def test_readout_scan_flat_profile_reports_smallest_phi(tmp_path):
    # at eta = 1, k = 0, m = N delta_phi equals the QCRB at every phi, so
    # only round-off could single out another operating point; the rows
    # report phi = 0
    out = tmp_path / "flat.csv"
    code = main(["--command", "readout-scan", "--n-range", "1:60",
                 "--eta", "1.0", "--k", "0", "--out", str(out)])
    assert code == 0
    assert_flat_rows_report_smallest_phi(out)


def test_readout_scan_flat_profile_without_kerr_reports_smallest_phi(tmp_path):
    # the flat profile without Kerr, where round-off next to a degenerate
    # point could pass for a lower value: the row reports phi = 0
    out = tmp_path / "flat.csv"
    code = main(["--command", "readout-scan", "--n-range", "23", "--eta", "1.0",
                 "--k", "0", "--chi", "0", "--out", str(out)])
    assert code == 0
    assert_flat_rows_report_smallest_phi(out)


def test_readout_scan_reaches_n_100(tmp_path):
    out = tmp_path / "readout100.csv"
    code = main(["--command", "readout-scan", "--n-range", "100", "--eta", "0.9",
                 "--k", "0", "--out", str(out)])
    assert code == 0
    _, (row,) = read_csv(out)
    assert row["status"] == "ok"
    assert float(row["delta_phi_min"]) >= float(row["qcrb"]) - 1e-9


def test_single_past_the_float_range_is_numerical(tmp_path, capsys):
    # the variance of the N = 100 coincidence observable exceeds the float
    # range: exit 3 with a numerical error, never a traceback
    out = tmp_path / "single100.csv"
    code = main(["--command", "single", "--n-range", "100", "--k", "0",
                 "--eta", "0.9", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical error: ")
    # the row computed before the overflow is kept, its variance left empty
    _, (row,) = read_csv(out)
    assert row["status"] == "ok" and row["variance"] == ""
    assert math.isfinite(float(row["mean"]))
    assert float(row["delta_phi_min"]) >= float(row["qcrb"]) - 1e-9
    assert float(row["delta_phi_at_phi"]) == float(row["delta_phi_min"])


def test_readout_scan_past_the_factorial_range_is_numerical(tmp_path, capsys):
    # from N = 171 the m = N observable's entries (up to N!) leave the
    # float range: exit 3 naming N and m, never a traceback
    out = tmp_path / "readout175.csv"
    code = main(["--command", "readout-scan", "--n-range", "175", "--k", "0",
                 "--eta", "0.9", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "Traceback" not in err
    assert "N = 175" in err and "m = 175" in err
    comments, rows = read_csv(out)
    assert rows == []
    assert any(c.startswith("# error ") and "N = 175" in c for c in comments)


def test_readout_scan_heavy_loss_at_large_n_is_not_degenerate(tmp_path):
    # at eta = 0.6 every slope of the k = 0 profile lies far below ||O||;
    # the profile is still a clean sinusoid whose readout saturates the
    # closed-form bound 1/((N + chi N^2/2) eta^(N/2))
    out = tmp_path / "readout_heavy.csv"
    assert main(["--command", "readout-scan", "--n-range", "70:100:10", "--eta", "0.6",
                 "--k", "0", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [int(row["N"]) for row in rows] == [70, 80, 90, 100]
    for row in rows:
        n, chi = int(row["N"]), float(row["chi"])
        assert row["status"] == "ok"
        want = 1.0 / ((n + chi * n * n / 2) * 0.6 ** (n / 2))
        got = float(row["delta_phi_min"])
        assert got == pytest.approx(want, rel=1e-9)
        # the bound is of order 1e9 here, so round-off is relative
        assert got >= float(row["qcrb"]) * (1 - 1e-9)


def test_readout_scan_heavy_loss_respects_qcrb(tmp_path):
    # at eta = 0.6 the branch coherence of N = 60 lies in one block far
    # below the others; the bound must still come out below the readout
    out = tmp_path / "readout60.csv"
    assert main(["--command", "readout-scan", "--n-range", "60", "--eta", "0.6",
                 "--k", "0", "--out", str(out)]) == 0
    _, (row,) = read_csv(out)
    assert float(row["delta_phi_min"]) >= float(row["qcrb"]) * (1 - 1e-9)


def test_optimize_scan_uses_cache(tmp_path):
    out1 = tmp_path / "opt1.csv"
    out2 = tmp_path / "opt2.csv"
    cache = tmp_path / "cache"
    args = ["--command", "optimize-scan", "--n-range", "1:3:1",
            "--eta", "0.9", "--cache", str(cache)]
    assert main(args + ["--out", str(out1)]) == 0
    assert len(list(cache.glob("opt-*.json"))) == 3
    assert main(args + ["--out", str(out2)]) == 0
    comments1, rows1 = body_without_timing(out1)
    comments2, rows2 = body_without_timing(out2)
    assert comments1 == comments2
    cached_flags = {row["cached"] for row in rows2}
    for row1, row2 in zip(rows1, rows2):
        row1.pop("cached"), row2.pop("cached")
        assert row1 == row2
    assert cached_flags == {"true"}


def test_cache_integrity_recomputes_stale_entries(tmp_path):
    cache = OptimizeCache(tmp_path / "cache")
    problem = OptimizationProblem(N=2, eta=0.9, chi=1e-8, restarts=2,
                                  max_evals=2000)
    outcome, from_cache = cache.get_or_run(problem)
    assert not from_cache
    # corrupt the stored value; the re-validation must reject and recompute
    path = cache._path(problem)
    data = json.loads(path.read_text())
    data["qfi_star"] += 0.5
    path.write_text(json.dumps(data))
    again, from_cache = cache.get_or_run(problem)
    assert not from_cache
    assert again.qfi_star == pytest.approx(outcome.qfi_star, rel=1e-12)


@pytest.mark.parametrize("poison", ["NaN", "Infinity", "-Infinity"])
def test_cache_non_finite_entry_is_recomputed(tmp_path, poison):
    # NaN and inf fail no "difference > tol" test; such an entry is a miss
    cache = tmp_path / "cache"
    args = ["--command", "optimize-scan", "--n-range", "2", "--eta", "0.6",
            "--cache", str(cache)]
    assert main(args + ["--out", str(tmp_path / "first.csv")]) == 0
    (path,) = cache.glob("opt-*.json")
    text = path.read_text()
    data = json.loads(text)
    path.write_text(json.dumps({**data, "qfi_star": float(poison)}))
    assert f'"qfi_star": {poison}' in path.read_text()
    assert main(args + ["--out", str(tmp_path / "again.csv")]) == 0
    _, (row,) = read_csv(tmp_path / "again.csv")
    assert row["cached"] == "false"
    assert float(row["qfi"]) == pytest.approx(data["qfi_star"], rel=1e-12)
    assert math.isfinite(float(row["qcrb"]))
    assert path.read_text() == text


@pytest.mark.parametrize("poison", ["evaluations", "per_restart seed"])
def test_cache_entry_with_an_overflowing_integer_is_recomputed(tmp_path, poison):
    # JSON's 1e400 reads as inf, which int() cannot convert: such an entry
    # is a miss and is replaced, not an exit 3 on every re-run
    cache = tmp_path / "cache"
    args = ["--command", "optimize-scan", "--n-range", "2", "--eta", "0.6",
            "--cache", str(cache)]
    assert main(args + ["--out", str(tmp_path / "first.csv")]) == 0
    (path,) = cache.glob("opt-*.json")
    text = path.read_text()
    data = json.loads(text)
    if poison == "evaluations":
        data["evaluations"] = "HUGE"
    else:
        data["per_restart"][1][0] = "HUGE"
    path.write_text(json.dumps(data).replace('"HUGE"', "1e400"))
    assert "1e400" in path.read_text()
    assert main(args + ["--out", str(tmp_path / "again.csv")]) == 0
    # recomputed (cached false, as in the first run) and stored again
    assert (body_without_timing(tmp_path / "again.csv")
            == body_without_timing(tmp_path / "first.csv"))
    assert path.read_text() == text


def test_cached_readout_row_takes_one_spectral_step(tmp_path, monkeypatch):
    # a hit is checked on the lossy family the readout row reads, so the
    # row's Fisher information is computed once and builds no optimizer model
    args = ["--command", "readout-scan", "--n-range", "3", "--eta", "0.6",
            "--cache", str(tmp_path / "cache")]
    assert main(args + ["--out", str(tmp_path / "fill.csv")]) == 0
    calls = []
    for module in (estimation, optimizer):
        monkeypatch.setattr(module, "_qfi_from_block_pairs",
                            lambda pairs, *rest, spectral=module._qfi_from_block_pairs:
                            calls.append(pairs) or spectral(pairs, *rest))
    monkeypatch.setattr(optimizer, "_QuadraticQfiModel", None)
    assert main(args + ["--out", str(tmp_path / "hit.csv")]) == 0
    assert len(calls) == 1
    assert (body_without_timing(tmp_path / "hit.csv")
            == body_without_timing(tmp_path / "fill.csv"))


@pytest.mark.parametrize("command", ["optimize-scan", "readout-scan"])
def test_cache_entry_with_a_nan_coefficient_is_recomputed(tmp_path, command):
    # NaN coefficients pass the normalization check and give a state of NaN
    # trace: the entry is a miss, not an error
    cache = tmp_path / "cache"
    args = ["--command", command, "--n-range", "2", "--eta", "0.6", "--cache", str(cache)]
    assert main(args + ["--out", str(tmp_path / "first.csv")]) == 0
    (path,) = cache.glob("opt-*.json")
    text = path.read_text()
    data = json.loads(text)
    path.write_text(json.dumps({**data, "alpha_star": [math.nan] * len(data["alpha_star"])}))
    problem, reader = OptimizationProblem(N=2, eta=0.6, chi=1e-8), OptimizeCache(cache)
    assert reader._path(problem) == path and reader.load(problem) is None
    assert main(args + ["--out", str(tmp_path / "again.csv")]) == 0
    assert (body_without_timing(tmp_path / "again.csv")
            == body_without_timing(tmp_path / "first.csv"))
    assert path.read_text() == text


def test_cache_truncated_entry_is_recomputed(tmp_path):
    cache = OptimizeCache(tmp_path / "cache")
    problem = OptimizationProblem(N=2, eta=0.9, chi=1e-8, restarts=2,
                                  max_evals=2000)
    outcome, _ = cache.get_or_run(problem)
    path = cache._path(problem)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    again, from_cache = cache.get_or_run(problem)
    assert not from_cache
    assert again.qfi_star == outcome.qfi_star
    assert path.read_text() == text
    assert sorted(p.name for p in cache.directory.iterdir()) == [path.name]


_CACHE_WRITER = """
import json, sys
from kerrmet.cli import OptimizeCache
from kerrmet.optimizer import OptimizationOutcome, OptimizationProblem
directory, problem, outcome, repeats = sys.argv[1:]
cache = OptimizeCache(directory)
problem = OptimizationProblem(**json.loads(problem))
outcome = OptimizationOutcome(**json.loads(outcome))
for _ in range(int(repeats)):
    cache.store(problem, outcome)
"""


def test_cache_concurrent_writers(tmp_path):
    # two processes store the same entry over and over while this one reads
    # it: every read after the first store hits, and no temporary remains
    import kerrmet

    fields = {"N": 2, "eta": 0.9, "chi": 1e-8}
    problem = OptimizationProblem(**fields)
    alpha = [1 / math.sqrt(2.0), 0.0]
    qfi_star = PhasedFamily(SuperpositionSpec.normalized(2, alpha), chi=1e-8,
                            eta=0.9).qfi().qfi
    outcome = {"alpha_star": alpha, "qfi_star": qfi_star, "evaluations": 1,
               "converged": True, "per_restart": [[0, qfi_star]]}
    cache = OptimizeCache(tmp_path / "cache")
    env = dict(os.environ, PYTHONPATH=str(Path(kerrmet.__file__).parents[1]))
    argv = [sys.executable, "-c", _CACHE_WRITER, str(cache.directory),
            json.dumps(fields), json.dumps(outcome), "25"]
    writers = [subprocess.Popen(argv, env=env) for _ in range(2)]
    reads, stored = 0, False
    while any(w.poll() is None for w in writers):
        loaded = cache.load(problem)
        assert loaded is not None or not stored
        if loaded is not None:
            stored = True
            reads += 1
            assert loaded[0].qfi_star == qfi_star
    assert [w.wait(timeout=60) for w in writers] == [0, 0]
    assert reads > 0
    assert cache.load(problem)[0].qfi_star == qfi_star
    assert [p.name for p in cache.directory.iterdir()] == [cache._path(problem).name]


def without_timing(path):
    if path.suffix == ".csv":
        return body_without_timing(path)
    doc = json.loads(path.read_text())
    for record in doc["records"]:
        record.pop("wall_time_ms")
    return doc


# per case, the commands one run makes in order, all on one --cache
_RERUNS = {
    "pure-qfi": [["--command", "pure-qfi", "--n-range", "1:5:2", "--chi", "1e-8"]],
    "qfi-scan": [["--command", "qfi-scan", "--n-range", "2:6:2", "--eta", "0.6,1.0"]],
    "optimize-then-readout": [
        ["--command", "optimize-scan", "--n-range", "1:3", "--eta", "0.9"],
        ["--command", "readout-scan", "--n-range", "1:3", "--eta", "0.9"]],
    "single": [["--command", "single", "--n-range", "4", "--k", "1", "--eta", "0.8",
                "--m", "2", "--phi", "0.3"]],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(_RERUNS))
def test_rerun_reproduces_body(tmp_path, case, fmt):
    # two runs from empty caches agree in every column but wall_time_ms,
    # and leave the same cache files
    runs = []
    for run in (tmp_path / "a", tmp_path / "b"):
        run.mkdir()
        cache, outputs = run / "cache", []
        for index, argv in enumerate(_RERUNS[case]):
            out = run / f"{index}.{fmt}"
            assert main(argv + ["--cache", str(cache), "--format", fmt,
                                "--out", str(out)]) == 0
            outputs.append(without_timing(out))
        files = {p.name: p.read_bytes() for p in cache.iterdir()} if cache.exists() else {}
        runs.append((outputs, files))
    assert runs[0] == runs[1]
    assert bool(runs[0][1]) == (case == "optimize-then-readout")


def strict_loads(text):
    def reject(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")
    return json.loads(text, parse_constant=reject)


def test_json_writes_non_finite_values_as_null(tmp_path):
    # JSON has no NaN or Infinity: the non-readout delta_phi_min and the
    # qcrb of a zero Fisher information are null, in the document and in the
    # CSV's '#' lines, while the CSV cells keep nan and inf
    out = tmp_path / "records.json"
    assert main(["--command", "pure-qfi", "--n-range", "2", "--format", "json",
                 "--out", str(out)]) == 0
    records = strict_loads(out.read_text())["records"]
    assert [record["delta_phi_min"] for record in records] == [None] * 3
    assert [record["qcrb"] is None for record in records] == [False, True, False]
    assert records[1]["qfi"] == 0.0
    out = tmp_path / "scan.csv"
    assert main(["--command", "qfi-scan", "--n-range", "5", "--eta", "0.9",
                 "--out", str(out)]) == 0
    comments, (row,) = read_csv(out)
    (slopes,) = [line for line in comments if line.startswith("# loglog_slopes ")]
    assert strict_loads(slopes.split(" ", 2)[2]) == {
        "0.9": {"slope": None, "n_min": 5, "n_max": 5}}
    assert row["delta_phi_min"] == "nan"


def test_json_output_mirror(tmp_path):
    out = tmp_path / "records.json"
    code = main(["--command", "pure-qfi", "--n-range", "2", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["command"] == "pure-qfi"
    assert len(doc["records"]) == 3
    for record in doc["records"]:
        if record["qfi"] > 0:
            assert record["qcrb"] == pytest.approx(
                1 / math.sqrt(record["qfi"]), rel=1e-12)


# outputs that open but take no writes
UNWRITABLE = [path for path in ("/dev/full", "/proc/version") if os.path.exists(path)]


def test_bad_flag_values_exit_2(tmp_path, capsys):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    missing_out = tmp_path / "missing" / "x.csv"
    too_long = str(tmp_path / ("x" * 300))  # a name the file system refuses
    # each case, and the path its error must name (None: no path involved)
    cases = [
        (["--command", "pure-qfi", "--n-range", "oops"], None),
        (["--command", "pure-qfi", "--eta", "2.0"], None),
        (["--command", "single", "--n-range", "2"], None),
        (["--command", "readout-scan", "--n-range", "2", "--k", "0", "--m", "0"], None),
        (["--command", "single", "--n-range", "2", "--k", "0", "--m", "0"], None),
        # m past N_MAX would overflow the int64 photon numbers it is compared
        # with; past |phi| = 2^52 one ulp of phi exceeds 1 rad, and phi times
        # a frequency overflows near 1e308
        (["--command", "readout-scan", "--n-range", "4", "--k", "0", "--m", str(10 ** 20)],
         "m must lie"),
        (["--command", "single", "--n-range", "4", "--k", "0", "--phi", "1e308"], "phi must"),
        (["--command", "single", "--n-range", "4", "--k", "0", f"--phi={2.0 ** 53!r}"],
         "phi must"),
        (["--config", str(tmp_path)], str(tmp_path)),
        (["--command", "readout-scan", "--n-range", "2", "--k", "0",
          "--cache", str(a_file), "--out", str(tmp_path / "out.csv")], str(a_file)),
        (["--command", "pure-qfi", "--n-range", "2", "--out", str(missing_out)],
         str(missing_out)),
        (["--command", "pure-qfi", "--n-range", "2", "--out", str(tmp_path)],
         str(tmp_path)),
        (["--command", "pure-qfi", "--n-range", "2", "--seed", "-5"], "seed must be >= 0"),
        (["--command", "pure-qfi", "--n-range", "2", "--out", too_long], too_long),
        (["--config", too_long], too_long),
        # these fail once the rows are written
        *[(["--command", "pure-qfi", "--n-range", "2", "--out", path], path)
          for path in UNWRITABLE],
    ]
    # each flag that cannot be read, and its whole error line
    bad_flags = [
        # --grid-points went with the operating-point search
        (["--command", "readout-scan", "--n-range", "2", "--grid-points", "801"],
         "unrecognized arguments: --grid-points"),
        (["--command", "pure-qfi", "--n-range", "2", "--k", "x"],
         "argument --k: invalid int value: 'x'"),
        (["--command", "pure-qfi", "--n-range", "2", "--chi", "abc"],
         "argument --chi: invalid float value: 'abc'"),
        (["--command", "pure-qfi", "--n-range", "2", "--out"],
         "argument --out: expected one argument"),
        (["--command", "bogus", "--n-range", "2"], "unknown command 'bogus'"),
        (["--command", "pure-qfi", "--n-range", "2", "--format", "xml"],
         "unknown format 'xml'"),
        (["qfi-scan", "--n-range", "2"], "unrecognized arguments: qfi-scan"),
        # flag names are exact: no prefix abbreviation
        (["--com", "pure-qfi"], "unrecognized arguments: --com"),
    ]
    # each config file, and the field its error must name (None: not checked)
    bad_files = [
        ({"command": "single", "n_range": "3", "alpha": [0.0, 0.0]}, None),
        ({"command": "single", "n_range": "3", "alpha": [1.0, 0.5, 0.2]}, None),
        (["command", "pure-qfi"], None),
        ({"command": "pure-qfi", "chi": "x"}, None),
        ({"command": "pure-qfi", "n_range": "2", "cache": 5}, None),
        ({"command": "pure-qfi", "n_range": "2", "out": 7}, None),
        ({"command": "pure-qfi", "n_range": "2", "eta_list": [10 ** 400]}, None),
        # list entries that int() and float() would take: N = 2, N = 1, eta = 1
        ({"command": "pure-qfi", "n_range": [2.7]}, "n_range"),
        ({"command": "pure-qfi", "n_range": [True, 2]}, "n_range"),
        ({"command": "pure-qfi", "n_range": "2", "eta_list": [True]}, "eta_list"),
        ({"command": "single", "n_range": "1", "alpha": [1.0, True]}, "alpha"),
        # strings, which int() and float() would parse: N = 3, eta = 0.5;
        # a whole-field string is flag syntax for n_range and eta_list only
        ({"command": "pure-qfi", "n_range": ["3"]}, "n_range"),
        ({"command": "pure-qfi", "n_range": "2", "eta_list": ["0.5"]}, "eta_list"),
        ({"command": "single", "n_range": "1", "alpha": ["1.0", 0.5]}, "alpha"),
        ({"command": "single", "n_range": "1", "alpha": "5"}, "alpha"),
        ({"command": "pure-qfi", "n_range": {"3": 1}}, "n_range"),
        # a removed field
        ({"command": "readout-scan", "n_range": "2", "grid_points": 801}, "grid_points"),
        ({"command": "single", "n_range": "4", "k": 0, "m": 10 ** 30}, "m must lie"),
        ({"command": "single", "n_range": "4", "k": 0, "phi": -1e20}, "phi must"),
    ]
    for index, (content, named) in enumerate(bad_files):
        config_file = tmp_path / f"bad{index}.json"
        config_file.write_text(json.dumps(content))
        cases.append((["--config", str(config_file)], named))
    before = sorted(tmp_path.iterdir())
    for argv, named in cases:
        assert main(argv) == 2, argv
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: "), argv
        assert named is None or named in line, line
    for argv, message in bad_flags:
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"config error: {message}\n")
    # every case fails before it writes anything here
    assert sorted(tmp_path.iterdir()) == before


def test_a_failed_flush_of_partial_results_exits_2(monkeypatch, capsys):
    # the exit-3 flush meets an output that takes no writes: the rows are
    # lost, so the run ends as a config error after the numerical one
    import kerrmet.cli as cli
    from kerrmet.fock import NumericalError

    def failing(n, eta, chi, phi=0.0):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "max_qfi_over_k", failing)
    for path in UNWRITABLE:
        assert main(["--command", "qfi-scan", "--n-range", "1", "--out", path]) == 2
        numerical, config = capsys.readouterr().err.splitlines()
        assert numerical == "numerical error: synthetic failure"
        assert config.startswith(f"config error: output {path} cannot be written")


def test_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "opt.csv"
    code = main(["--command", "optimize-scan", "--n-range", "3", "--eta", "0.6",
                 "--seed", "-5", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "seed" in err
    assert "Traceback" not in err
    assert not out.exists()


# a float config field beyond the float range, or a chi whose Fisher
# information bound (N + chi N^2/2)^2 overflows at the largest N
@pytest.mark.parametrize("field, text", [
    ("chi", "1e300"), ("chi", "1" + "0" * 400), ("phi", "1" + "0" * 400)],
    ids=["chi-float", "chi-int", "phi-int"])
def test_overflowing_float_config_exits_2(tmp_path, capsys, field, text):
    config_file = tmp_path / "config.json"
    config_file.write_text('{"command": "qfi-scan", "n_range": "2", '
                           f'"eta_list": [0.9], "{field}": {text}}}')
    assert main(["--config", str(config_file)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("config error: ") and field in line
    assert captured.out == ""


def test_integer_float_fields_become_floats(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"command": "pure-qfi", "chi": 1, "phi": 0}))
    config = build_config(["--config", str(config_file)])
    assert type(config.chi) is float and type(config.phi) is float


def test_every_flag_is_a_config_field():
    # one name per setting: each flag sets a config field, so the parsed
    # flags are the overrides, and every scalar field is type-checked
    import kerrmet.cli as cli

    config_fields = set(ExperimentConfig.__annotations__)
    dests = {name for name, _ in cli._FLAGS.values()} - {"config"}
    assert dests <= config_fields
    assert config_fields - dests == {"alpha"}  # set only in config files
    assert set(cli._SCALAR_FIELDS) == config_fields - {"n_range", "eta_list", "alpha"}
    assert all(flag == "--" + name.replace("_", "-") for flag, (name, _) in cli._FLAGS.items()
               if flag != "--eta")
    assert parse_flags(["--eta", "0.5", "--n-range", "2"]) == {
        "eta_list": "0.5", "n_range": "2"}
    # --flag=value, and the last of a repeated flag wins
    assert parse_flags(["--n-range=2:4", "--k", "1", "--chi", "1", "--k=0"]) == {
        "n_range": "2:4", "k": 0, "chi": 1.0}
    config = build_config(["--command", "pure-qfi", "--n-range=2:4", "--chi", "1",
                           "--chi", "0.5"])
    assert config.n_range == (2, 3, 4) and config.chi == 0.5


def test_module_entry_point(tmp_path):
    # python -m kerrmet.cli reads sys.argv: a good argv exits 0, a bad one
    # exits 2 with one line, --help names every command and flag
    import kerrmet
    import kerrmet.cli as cli

    env = dict(os.environ, PYTHONPATH=str(Path(kerrmet.__file__).parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "kerrmet.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    out = tmp_path / "pure.csv"
    good = run("--command", "pure-qfi", "--n-range", "2", "--out", str(out))
    assert (good.returncode, good.stdout, good.stderr) == (0, "", "")
    assert len(read_csv(out)[1]) == 3
    bad = run("--command", "pure-qfi", "--k", "x")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr == "config error: argument --k: invalid int value: 'x'\n"
    shown = run("--help")
    assert (shown.returncode, shown.stderr) == (0, "")
    assert all(name in shown.stdout for name in [*cli._FLAGS, *COMMANDS])


def _module_env(**extra):
    import kerrmet

    return dict(os.environ, PYTHONPATH=str(Path(kerrmet.__file__).parents[1]), **extra)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that takes no writes")
def test_stdout_that_takes_no_writes_exits_2():
    # a full device on stdout: one config error line, also after the exit-3
    # flush and for the help text, and no traceback from the interpreter's
    # final flush
    cases = [(["--command", "pure-qfi", "--n-range", "2"], ""),
             (["--command", "pure-qfi", "--n-range", "2", "--format", "json"], ""),
             # the N = 100 coincidence variance leaves the float range: exit 3
             (["--command", "single", "--n-range", "100", "--k", "0", "--eta", "0.9"],
              "numerical error: "),
             (["--help"], "")]
    for argv, first in cases:
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, "-m", "kerrmet.cli", *argv],
                                    env=_module_env(), stdout=full, stderr=subprocess.PIPE,
                                    text=True, timeout=60)
        *before, last = result.stderr.splitlines()
        assert result.returncode == 2, result.stderr
        assert [line[:len(first)] for line in before] == ([first] if first else [])
        assert last == ("config error: output stdout cannot be written: "
                        "[Errno 28] No space left on device")


def test_closed_stdout_pipe_exits_2_quietly():
    # the reader closes the pipe before any row, or the help text, is written
    for argv in (["--command", "pure-qfi", "--n-range", "2"], ["--help"]):
        child = subprocess.Popen([sys.executable, "-m", "kerrmet.cli", *argv],
                                 env=_module_env(), stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 2, argv
        assert stderr == b"", argv


def test_rows_do_not_depend_on_the_blas_thread_count(tmp_path):
    argvs = [["qfi-scan", "--n-range", "10:60:25", "--eta", "0.3,0.9"],
             ["optimize-scan", "--n-range", "1:8", "--eta", "0.6"]]
    for index, argv in enumerate(argvs):
        bodies = []
        for threads in ("1", "2"):
            out = tmp_path / f"{index}-{threads}.csv"
            env = _module_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "kerrmet.cli", "--command", *argv,
                            "--out", str(out)], env=env, check=True, timeout=300)
            bodies.append(body_without_timing(out))
        assert bodies[0] == bodies[1], argv


def test_m_past_n_and_phi_at_the_ceiling_still_run(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["--command", "readout-scan", "--n-range", "4", "--k", "0", "--m", "5",
                 "--eta", "0.9", "--out", str(out)]) == 0
    _, (row,) = read_csv(out)
    assert row["m"] == "5" and row["status"] == "degenerate"
    assert main(["--command", "single", "--n-range", "4", "--k", "0",
                 f"--phi={-2.0 ** 52!r}", "--out", str(out)]) == 0
    _, (row,) = read_csv(out)
    assert row["phi_star"] == "0.0" and math.isfinite(float(row["delta_phi_at_phi"]))


def test_max_n_is_gone_and_exits_2(tmp_path, capsys):
    # the N range's upper end is the only way to set the largest N: the
    # flag is unknown, and so is the config field
    assert main(["--command", "optimize-scan", "--n-range", "1:4:1", "--max-n", "6"]) == 2
    assert capsys.readouterr() == ("", "config error: unrecognized arguments: --max-n\n")
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"command": "optimize-scan", "n_range": "1:4",
                                       "max_n": 10 ** 30}))
    assert main(["--config", str(config_file)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: unknown config fields") and "max_n" in line


# an N past the ceiling, as a range string (flag or config), as a list entry
# or directly: each is rejected before any range is built or work is done
@pytest.mark.parametrize("n_range", [
    "1:100000000000000000000000", f"1:{10 ** 30}:{10 ** 27}", "1000001",
    "-" + "1" * 25 + ":3", [10 ** 30], [1e308], [3, N_MAX + 1]])
def test_n_past_the_ceiling_exits_2(tmp_path, capsys, n_range):
    argvs = [["--config", str(tmp_path / "config.json")]]
    (tmp_path / "config.json").write_text(json.dumps({"command": "qfi-scan",
                                                      "n_range": n_range}))
    if isinstance(n_range, str):
        argvs.append(["--command", "qfi-scan", f"--n-range={n_range}"])
    for argv in argvs:
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("config error: N values must lie in [1, 1000000]"), line
        assert captured.out == ""
    with pytest.raises(ConfigError):
        ExperimentConfig(command="qfi-scan", n_range=(N_MAX + 1,), eta_list=(1.0,))
    # block_offsets' largest int64 product, t(t+1)(2t+1) at t = N + 1, holds
    assert (N_MAX + 1) * (N_MAX + 2) * (2 * N_MAX + 3) <= np.iinfo(np.int64).max


# config-file values: JSON scalars, with integers either a cheap N (<= 8)
# or past the ceiling and floats either small or at the float range's edge,
# and lists and objects of them
_HUGE_INTS = st.sampled_from([N_MAX + 1, 10 ** 30])
_NUMBERS = (st.booleans() | st.integers(-2, 8) | _HUGE_INTS | st.floats(-10, 10)
            | st.sampled_from([1e308, -1e308]))


def _containers(children):
    return st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children,
                                                             max_size=2)


_JSON_VALUES = st.recursive(st.none() | st.text(max_size=6) | _NUMBERS, _containers,
                            max_leaves=6)
_N_VALUES = st.integers(1, 8) | _HUGE_INTS | st.just(1e308)
# per field, values of the kind it takes, N past the ceiling included;
# destinations are names inside the example's own directory
_TYPED_VALUES = {
    "command": st.sampled_from(COMMANDS),
    "n_range": st.lists(st.integers(1, 8), min_size=1, max_size=2)
    | st.builds("{}:{}".format, st.integers(1, 8), st.integers(1, 8))
    | st.lists(_N_VALUES, min_size=1, max_size=2)
    | st.builds("{}:{}".format, st.integers(1, 8), _N_VALUES),
    "eta_list": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
    "chi": st.floats(0.0, 0.5),
    "phi": st.floats(-10, 10),
    "k": st.integers(0, 8),
    "m": st.integers(1, 8),
    "seed": st.integers(0, 3),
    "alpha": st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=5),
    "format": st.sampled_from(FORMATS),
    "out": st.sampled_from(["out.csv", "sub/out.csv", ".", ""]),
    "cache": st.sampled_from(["cache", ""]),
}
# a null N range runs the command's default range, and a string names a
# range or a path: these fields take no untyped string or null
_NO_FREE_STRING = {"n_range", "out", "cache"}
_FIELD_NAMES = sorted(ExperimentConfig.__annotations__)


@st.composite
def config_files(draw):
    """A config object: always a command and an N range (their defaults can
    be slow), plus random fields, one time in six a removed or unknown
    one, each with a value of its kind or, one time in six, any JSON value."""
    names = draw(st.lists(st.sampled_from(_FIELD_NAMES), max_size=4, unique=True))
    if draw(st.integers(0, 5)) == 0:
        names.append(draw(st.sampled_from(["max_n", "grid_points", "config"])
                          | st.text(max_size=6)))
    content = {}
    for name in ["command", "n_range", *names]:
        if name in _TYPED_VALUES and draw(st.integers(0, 5)) > 0:
            content[name] = draw(_TYPED_VALUES[name])
        elif name in _NO_FREE_STRING:
            content[name] = draw(_NUMBERS | _containers(_JSON_VALUES))
        else:
            content[name] = draw(_JSON_VALUES)
    return content


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(content=config_files())
@example(content={"command": "qfi-scan", "n_range": f"1:{10 ** 30}:{10 ** 27}"})
@example(content={"command": "qfi-scan", "n_range": "1:3", "max_n": 10 ** 30})
def test_every_config_file_exits_0_2_or_3(tmp_path_factory, content):
    directory = tmp_path_factory.mktemp("config")
    content = dict(content)
    for name in ("out", "cache"):
        if isinstance(content.get(name), str) and content[name]:  # a name: place it here
            content[name] = str(directory / content[name])
    (directory / "config.json").write_text(json.dumps(content))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--config", str(directory / "config.json")])
    assert code in (0, 2, 3), (content, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()


def test_numerical_error_flushes_partial_results(tmp_path, monkeypatch):
    import kerrmet.cli as cli
    from kerrmet.fock import NumericalError

    calls = []

    def flaky(n, eta, chi, phi=0.0):
        if len(calls) >= 2:
            raise NumericalError("synthetic failure")
        calls.append(n)
        return 0, float(n * n)

    monkeypatch.setattr(cli, "max_qfi_over_k", flaky)
    out = tmp_path / "partial.csv"
    code = main(["--command", "qfi-scan", "--n-range", "1:4:1",
                 "--eta", "1.0", "--out", str(out)])
    assert code == 3
    comments, rows = read_csv(out)
    assert len(rows) == 2  # completed points were flushed
    assert any("error" in c for c in comments)


def test_overflow_error_exits_3(tmp_path, monkeypatch):
    import kerrmet.cli as cli

    def overflowing(n, eta, chi, phi=0.0):
        raise OverflowError("synthetic overflow")

    monkeypatch.setattr(cli, "max_qfi_over_k", overflowing)
    out = tmp_path / "overflow.csv"
    assert main(["--command", "qfi-scan", "--n-range", "1", "--eta", "1.0",
                 "--out", str(out)]) == 3
    comments, rows = read_csv(out)
    assert rows == [] and any("synthetic overflow" in c for c in comments)


def test_memory_error_exits_3_and_flushes(tmp_path, monkeypatch, capsys):
    # an allocation the host refuses ends like a numerical error: the rows
    # completed before it are flushed.  The runner raises MemoryError itself,
    # so no large array is ever requested
    import kerrmet.cli as cli

    def exhausting(config, records):
        records.append(cli._row(config, 0.0, N=1, k_or_alpha_digest="k=0", eta=1.0,
                                qfi=1.0))
        raise MemoryError()

    monkeypatch.setitem(cli._COMMANDS, "qfi-scan", (exhausting, "1", "1.0"))
    out = tmp_path / "memory.csv"
    assert main(["--command", "qfi-scan", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical error: MemoryError\n"
    comments, rows = read_csv(out)
    assert len(rows) == 1 and "# error \"MemoryError\"" in comments
