"""The per-layer benchmark (perfbench/tracer.py) records its spans by
wrapping kerrmet functions and methods by name.  A hook none of whose
targets exists any more goes silent without failing anything, so this
checks every hook still resolves, the way the tracer's ``install`` looks
its targets up, without installing it.  A hook's count callback reads
its target's arguments and result, so each workload's quick command also
runs traced, in a fresh process (``install`` patches the modules for
good)."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kerrmet.cli  # noqa: F401  (the tracer installs after this import)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


HOOKS = _load_tracer().HOOKS


def _resolves(module_name: str, path: str) -> bool:
    owner = sys.modules.get(module_name)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part, None)
    return owner is not None and callable(owner.__dict__.get(attr))


@pytest.mark.parametrize("hook", HOOKS, ids=lambda hook: hook.name)
def test_every_benchmark_hook_resolves_a_target(hook):
    assert any(_resolves(module, path) for module, path in hook.targets), hook.targets


# argv: workload name, cache dir; runs the quick command (after the
# command that fills its cache, for a filled-cache workload) under the
# tracer, and exits with the last call's code
_TRACED_RUN = """
import sys
import kerrmet.cli
from tracer import Tracer
from workloads import WORKLOADS

workload, cache = WORKLOADS[sys.argv[1]], ["--cache", sys.argv[2]]
tracer = Tracer()
tracer.install()
calls = [workload.command(0, quick=True)]
if workload.cache == "filled":
    calls.insert(0, workload.fill_command(0, quick=True))
for argv in calls:
    code = kerrmet.cli.main(argv + cache + ["--out", sys.argv[2] + ".csv"])
    if code:
        sys.exit(code)
tracer.layer_metrics()
"""


def _workload_names():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return list(module.WORKLOADS)


@pytest.mark.parametrize("name", _workload_names())
def test_every_workload_runs_traced(tmp_path, name):
    import kerrmet

    src = str(Path(kerrmet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(PERFBENCH)]))
    result = subprocess.run([sys.executable, "-c", _TRACED_RUN, name, str(tmp_path / "cache")],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
