"""The package's records and its debug output.

Records are plain classes on ``kerrmet.fock.Record``: frozen ones reject
assignment and hash by their fields, every one equals a record of its
class with the same fields, and the cache digests and config echo read
off them are those the dataclass versions gave.  Debug records reach a
configured handler, though the package never imports logging itself."""

import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kerrmet import __version__
from kerrmet.cli import ExperimentConfig, OptimizeCache
from kerrmet.estimation import _clamped_probabilities
from kerrmet.fock import PSD_FLOOR
from kerrmet.interferometer import NoonLikeSpec, SuperpositionSpec
from kerrmet.optimizer import (
    RANDOM_GENERATOR,
    OptimizationOutcome,
    OptimizationProblem,
    optimize_alpha,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("record, name, value", [
    (NoonLikeSpec(3, 1), "N", 4),
    (NoonLikeSpec(3, 1), "alpha", (1.0, 0.0)),
    (OptimizationProblem(N=3, eta=0.9, chi=0.0), "eta", 0.5),
    (OptimizationProblem(N=3, eta=0.9, chi=0.0), "seed", 1),
])
def test_frozen_record_rejects_assignment(record, name, value):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == before


def test_equal_fields_give_equal_records_and_hashes():
    problem = OptimizationProblem(N=3, eta=0.9, chi=0.0)
    same = OptimizationProblem(3, 0.9, 0.0, 16, 20000, 0)
    assert problem == same and hash(problem) == hash(same)
    assert problem != OptimizationProblem(N=3, eta=0.9, chi=0.0, seed=1)
    # k and N - k name one state; the list of coefficients becomes a tuple
    spec = NoonLikeSpec(4, 1)
    assert spec == NoonLikeSpec(4, 3) and hash(spec) == hash(NoonLikeSpec(4, 3))
    assert spec == SuperpositionSpec(4, list(spec.alpha))
    assert spec != NoonLikeSpec(4, 0) and spec != (4, spec.alpha)
    assert len({problem, same, spec, NoonLikeSpec(4, 3)}) == 2
    # a mutable record compares by its fields and has no hash
    outcome = OptimizationOutcome(alpha_star=(1.0,), qfi_star=1.0, evaluations=1,
                                  converged=True, per_restart=[(0, 1.0)])
    assert outcome == OptimizationOutcome(**vars(outcome))
    assert outcome != OptimizationOutcome(**{**vars(outcome), "evaluations": 2})
    with pytest.raises(TypeError):
        hash(outcome)


@pytest.mark.parametrize("args, kwargs", [
    ((3, 0.9), {"N": 3, "chi": 0.0}),  # N twice
    ((), {"N": 3, "eta": 0.9}),  # no chi
    ((), {"N": 3, "eta": 0.9, "chi": 0.0, "seeds": 2}),  # no such field
    ((3, 0.9, 0.0, 16, 20000, 0, 5), {}),  # one value too many
])
def test_record_takes_each_field_once(args, kwargs):
    with pytest.raises(TypeError):
        OptimizationProblem(*args, **kwargs)


def test_config_echo_keeps_its_keys_and_values():
    config = ExperimentConfig(format="json", cache="c", k=1, eta_list=(0.5,),
                              out="o.csv", n_range=(3,), command="single")
    echo = config.echo()
    assert list(echo) == ["command", "n_range", "eta_list", "chi", "phi", "k", "m",
                          "alpha", "seed", "format", "code_version"]
    assert echo == {"command": "single", "n_range": (3,), "eta_list": (0.5,), "chi": 1e-8,
                    "phi": 0.0, "k": 1, "m": None, "alpha": None, "seed": 0,
                    "format": "json", "code_version": __version__}
    echo["k"] = 2
    assert config.k == 1 and config.out == "o.csv"


def test_cache_file_names_are_unchanged(tmp_path):
    # the digest of the problem's fields and ALGO_VERSION names the entry: a
    # changed field table would orphan every filled cache, as a raised
    # ALGO_VERSION (4 here) does on purpose.  The names changed once, when the
    # optimizer's gradient tolerance left the fields for a module constant
    cache = OptimizeCache(tmp_path)
    assert cache._path(OptimizationProblem(N=2, eta=0.6, chi=1e-8)).name == (
        "opt-6e4bc2ccb65123f65c3db54f.json")
    assert cache._path(OptimizationProblem(N=5, eta=0.9, chi=0.0, seed=3,
                                           restarts=4)).name == (
        "opt-2df72df3dfb7965082ab39a0.json")


def test_eigenvalue_clamp_reaches_a_debug_handler(caplog):
    assert PSD_FLOOR < -1e-12
    with caplog.at_level(logging.DEBUG, logger="kerrmet.estimation"):
        clamped = _clamped_probabilities(np.array([-1e-12, 1.0]), "block 3")
    assert clamped.tolist() == [0.0, 1.0]
    (record,) = caplog.records
    assert (record.name, record.levelno) == ("kerrmet.estimation", logging.DEBUG)
    assert record.getMessage() == "block 3: clamping 1 negative eigenvalues (min -1.000e-12) to 0"


def test_optimizer_start_line_reaches_a_debug_handler(caplog):
    problem = OptimizationProblem(N=2, eta=0.9, chi=0.0, restarts=1, max_evals=50)
    with caplog.at_level(logging.DEBUG, logger="kerrmet.optimizer"):
        optimize_alpha(problem)
    messages = [r.getMessage() for r in caplog.records if r.name == "kerrmet.optimizer"]
    assert messages == [f"optimize_alpha N=2 eta=0.900: 2 starts x 50 evals, "
                        f"rng={RANDOM_GENERATOR}"]


def test_debug_record_without_logging_imports_nothing():
    # with no logging loaded no handler exists: the clamp drops its record
    code = ("import sys, numpy as np, kerrmet.estimation as e; "
            "print(e._clamped_probabilities(np.array([-1e-12, 1.0]), 'x').tolist(), "
            "'logging' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == "[0.0, 1.0] False\n"
