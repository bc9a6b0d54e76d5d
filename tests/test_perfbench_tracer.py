"""The benchmark's tracer patches ramimo functions by name; those names must resolve.

`perfbench/tracer.py` looks its targets up with getattr, so a renamed or
removed function makes `perfbench/run.py --trace 1` die with AttributeError.
"""

import importlib.util
from pathlib import Path

import ramimo.cli
import ramimo.montecarlo

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    for _layer, name in tracer.LEAF_FUNCTIONS:
        assert callable(getattr(ramimo.montecarlo, name, None)), f"ramimo.montecarlo.{name}"
    for name in ("run_trial", "run_variance_trial"):
        assert callable(getattr(ramimo.montecarlo, name, None)), f"ramimo.montecarlo.{name}"
    for name in ("run_ber_sweep", "run_phi_sweep", "run_rsr_sweep"):
        assert callable(getattr(ramimo.cli, name, None)), f"ramimo.cli.{name}"


def test_patching_restores_every_name():
    tracer = _load_tracer()
    before = {name: getattr(ramimo.montecarlo, name) for _layer, name in tracer.LEAF_FUNCTIONS}
    with tracer.Tracer().patched():
        assert all(getattr(ramimo.montecarlo, name) is not fn for name, fn in before.items())
    assert all(getattr(ramimo.montecarlo, name) is fn for name, fn in before.items())
