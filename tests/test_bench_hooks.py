"""The per-layer benchmark (perfbench/tracer.py) records its spans by
wrapping kerrmet functions and methods by name.  A hook none of whose
targets exists any more goes silent without failing anything, so this
checks every hook still resolves, the way the tracer's ``install`` looks
its targets up, without installing it."""

import importlib.util
import sys
from pathlib import Path

import pytest

import kerrmet.cli  # noqa: F401  (the tracer installs after this import)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
