"""The benchmark's tracer patches ramimo functions by name; those names must resolve.

`perfbench/tracer.py` looks its targets up with getattr, so a renamed or
removed function makes `perfbench/run.py --trace 1` die with AttributeError;
and a traced run must write the same CSV as an untraced one.
"""

import importlib.util
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("argv,csv_name", [
    (["ber", "--scheme", "prss", "--m", "8", "--n", "4", "--snr-db-list", "12",
      "--trials", "12", "--target-errors", "0"], "ber.csv"),
    (["ber", "--scheme", "prss", "--detector", "zf", "--m", "8", "--n", "4", "--phi", "0.9",
      "--snr-db-list", "12", "--trials", "12", "--target-errors", "0"], "ber.csv"),
    (["ber", "--scheme", "single_shot", "--m", "8", "--n", "4", "--snr-db-list", "12",
      "--trials", "12", "--target-errors", "0"], "ber.csv"),
    (["ber", "--scheme", "rf_baseline", "--m", "8", "--n", "4", "--snr-db-list", "4",
      "--trials", "12", "--target-errors", "0"], "ber.csv"),
    (["phi-sweep", "--m", "32", "--n", "2", "--samples", "128",
      "--phi-grid", "1.5707963267948966,0.9"], "phi_sweep.csv"),
])
def test_traced_run_writes_the_untraced_csv(tmp_path, argv, csv_name):
    # the tracer's kernel counts read the arguments of every patched call,
    # so a patched name called on a stack of trials would fail the traced run
    tracer = _load_tracer()
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert ramimo.cli.main(argv + ["--threads", "1", "--out", str(plain)]) == 0
    with tracer.Tracer().patched():
        assert ramimo.cli.main(argv + ["--threads", "1", "--out", str(traced)]) == 0
    assert (traced / csv_name).read_bytes() == (plain / csv_name).read_bytes()
