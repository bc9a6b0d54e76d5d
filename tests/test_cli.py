import json
import os

import numpy as np
import pytest

from ramimo import montecarlo
from ramimo.cli import DEFAULTS, _build_parser, _usable_cores, main

BER_ARGS = [
    "ber", "--scheme", "rf_baseline", "--detector", "zf", "--m", "4", "--n", "2",
    "--snr-db-list", "2,10", "--trials", "300", "--target-errors", "50",
]


def test_ber_csv_schema_and_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(BER_ARGS + ["--out", str(out1)]) == 0
    assert main(BER_ARGS + ["--out", str(out2)]) == 0
    csv1 = (out1 / "ber.csv").read_bytes()
    assert csv1 == (out2 / "ber.csv").read_bytes()
    header = csv1.decode().splitlines()[0]
    assert header == "scheme,detector,snr_db,rsr_db,m,n,qam,bit_errors,bits_total,ber,ci95,seed"


@pytest.mark.parametrize("argv", [
    BER_ARGS,
    ["phi-sweep", "--m", "16", "--n", "2", "--samples", "64", "--seed", "3",
     "--phi-grid", "1.5707963267948966,0,0.9"],
    ["rsr-sweep", "--m", "16", "--n", "2", "--samples", "64", "--seed", "4",
     "--rsr-db-list", "20,40", "--sigma-v-sq-list", "0.1,0.01"],
    ["trace-curve", "--sigma-v-sq", "0.2", "--u-mod", "1.5", "--phi-grid", "0.4,0,2"],
], ids=lambda argv: argv[0])
def test_manifest_rerun_byte_identical(tmp_path, argv):
    command = argv[0]
    stem = command.replace("-", "_")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out1)]) == 0
    manifest = out1 / f"{stem}.manifest.json"
    data = json.loads(manifest.read_text())
    assert data["command"] == command
    assert data["config"]["seed"] == data["master_seed"]
    assert str(out1 / f"{stem}.csv") in data["outputs"]
    assert main([command, "--config", str(manifest), "--out", str(out2)]) == 0
    assert (out1 / f"{stem}.csv").read_bytes() == (out2 / f"{stem}.csv").read_bytes()


def test_manifest_with_svg_key_still_replays(tmp_path):
    # manifests from versions that could plot hold an "svg" key; replay ignores it
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(BER_ARGS + ["--out", str(out1)]) == 0
    manifest = out1 / "ber.manifest.json"
    data = json.loads(manifest.read_text())
    data["config"]["svg"] = True
    manifest.write_text(json.dumps(data))
    assert main(["ber", "--config", str(manifest), "--out", str(out2)]) == 0
    assert (out1 / "ber.csv").read_bytes() == (out2 / "ber.csv").read_bytes()
    assert not list(out2.glob("*.svg"))
    assert json.loads((out2 / "ber.manifest.json").read_text())["outputs"] == [
        str(out2 / "ber.csv")
    ]


def test_manifest_records_run_environment(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(BER_ARGS + ["--out", str(out1), "--threads", "2"]) == 0
    data = json.loads((out1 / "ber.manifest.json").read_text())
    env = data["env"]
    assert set(env) == {
        "python", "numpy", "blas", "start_method", "workers", "blas_threads_per_worker",
    }
    assert env["numpy"] == np.__version__
    assert env["workers"] == 2
    # one BLAS thread per process of a run that forked, else the caller's own count
    api = montecarlo._blas_threads()
    expected = None if api is None else 1 if data["workers_started"] else api.get()
    assert env["blas_threads_per_worker"] == expected
    assert "env" not in data["config"]
    # the env block never reaches the CSV, and replaying ignores it
    assert main(["ber", "--config", str(out1 / "ber.manifest.json"), "--threads", "1",
                 "--out", str(out2)]) == 0
    assert (out1 / "ber.csv").read_bytes() == (out2 / "ber.csv").read_bytes()
    assert json.loads((out2 / "ber.manifest.json").read_text())["env"]["workers"] == 1


def test_manifest_records_whether_the_run_forked(tmp_path, monkeypatch):
    # one point of one trial: the caller's first chunk is the whole run, so
    # starting a worker could save nothing
    tiny = ["ber", "--scheme", "rf_baseline", "--detector", "zf", "--m", "4", "--n", "2",
            "--snr-db-list", "2", "--trials", "1", "--threads", "2"]
    assert main(tiny + ["--out", str(tmp_path / "a")]) == 0
    assert json.loads((tmp_path / "a" / "ber.manifest.json").read_text())["workers_started"] == 0
    monkeypatch.setattr(montecarlo, "_POOL_COST_S", 0.0)  # workers start before any trial
    assert main(tiny + ["--out", str(tmp_path / "b")]) == 0
    forked = json.loads((tmp_path / "b" / "ber.manifest.json").read_text())
    assert forked["workers_started"] == 1
    # a run that forked ran one BLAS thread in every process
    assert forked["env"]["blas_threads_per_worker"] == (None if montecarlo._blas_threads() is None
                                                        else 1)
    assert (tmp_path / "a" / "ber.csv").read_bytes() == (tmp_path / "b" / "ber.csv").read_bytes()


def test_default_threads_is_usable_cores(tmp_path):
    out = tmp_path / "o"
    assert main(BER_ARGS + ["--out", str(out)]) == 0
    threads = json.loads((out / "ber.manifest.json").read_text())["config"]["threads"]
    if hasattr(os, "sched_getaffinity"):
        assert threads == len(os.sched_getaffinity(0))
    else:
        assert threads == (os.cpu_count() or 1)


def test_usable_cores_without_affinity(monkeypatch):
    # where the OS reports no affinity, every core counts, and an unknown count is 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _usable_cores() == 1


def test_threads_flag_does_not_change_results(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(BER_ARGS + ["--out", str(out1), "--threads", "1"]) == 0
    assert main(BER_ARGS + ["--out", str(out2), "--threads", "2"]) == 0
    assert (out1 / "ber.csv").read_bytes() == (out2 / "ber.csv").read_bytes()


def test_phi_sweep_csv_and_singular_skip(tmp_path, capsys):
    out = tmp_path / "o"
    code = main([
        "phi-sweep", "--m", "32", "--n", "2", "--samples", "500",
        "--phi-grid", "1.5707963267948966,0,0.7853981633974483", "--out", str(out),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "singular offset" in err
    lines = (out / "phi_sweep.csv").read_text().splitlines()
    assert lines[0] == "phi_rad,sigma_ve_sq,sigma_v_sq,rsr_db,samples,seed"
    assert lines[1].startswith("# skipped phi=0")
    assert len(lines) == 4  # header + comment + two usable points


def test_rsr_sweep_csv(tmp_path):
    out = tmp_path / "o"
    code = main([
        "rsr-sweep", "--m", "32", "--n", "2", "--samples", "500",
        "--rsr-db-list", "20,40", "--sigma-v-sq-list", "0.1", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "rsr_sweep.csv").read_text().splitlines()
    assert lines[0] == "rsr_db,sigma_v_sq,sigma_ve_sq,samples,seed"
    assert len(lines) == 3


def test_trace_curve_values(tmp_path):
    out = tmp_path / "o"
    grid = f"{np.pi/2},{np.pi/4}"
    assert main(["trace-curve", "--phi-grid", grid, "--sigma-v-sq", "0.1",
                 "--out", str(out)]) == 0
    lines = (out / "trace_curve.csv").read_text().splitlines()
    assert lines[0] == "phi_rad,predicted_trace,predicted_mse,sigma_v_sq,u_mod"
    row_half_pi = lines[1].split(",")
    assert float(row_half_pi[1]) == 2.0
    assert float(row_half_pi[2]) == 0.1
    row_quarter_pi = lines[2].split(",")
    assert float(row_quarter_pi[1]) == 4.0


def test_usage_errors_exit_2(tmp_path):
    out = str(tmp_path / "o")
    assert main(["ber", "--snr-db-list", "", "--out", out]) == 2
    assert main(["ber", "--snr-db-list", "4", "--trials", "0", "--out", out]) == 2
    assert main(["phi-sweep", "--phi-grid", "0", "--out", out]) == 2
    assert main(["rsr-sweep", "--rsr-db-list", "", "--out", out]) == 2
    assert main(["ber", "--snr-db-list", "4,x", "--out", out]) == 2
    assert main(["ber", "--config", str(tmp_path / "missing.ini"), "--out", out]) == 2
    taken = tmp_path / "taken"  # --out names a file, so the directory cannot be made
    taken.write_text("")
    assert main(["ber", "--snr-db-list", "4", "--out", str(taken)]) == 2


def test_a_failed_manifest_write_is_a_runtime_failure(tmp_path, capsys):
    (tmp_path / "trace_curve.manifest.json").mkdir()
    assert main(["trace-curve", "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("runtime failure: ") and "trace_curve.manifest.json" in err, err
    assert out == ""  # nothing claims the manifest was written


# unusable config files: name -> (text, what the error must name besides the file)
BAD_CONFIGS = {
    "bad_m.ini": ("[ber]\nm = abc\n", "m = 'abc'"),
    "bad_threads.json": (json.dumps({"command": "ber", "config": {"threads": "x"}}), "threads"),
    "no_section.ini": ("m = 4\n", "INI"),
    "truncated.json": ('{"config": ', "JSON"),
    "list.json": ("[1]", "JSON"),
    # an integer key refuses a fraction instead of truncating it
    "fraction_m.json": (json.dumps({"command": "rsr-sweep", "config": {"m": 4.7}}), "m = 4.7"),
    "bool_samples.json": (json.dumps({"config": {"samples": True}}), "samples = True"),
    # a value is a string or a number; a number list is one comma-separated string
    "list_snr.json": (json.dumps({"config": {"snr_db_list": [4, 8]}}), "snr_db_list = [4, 8]"),
    "list_scheme.json": (json.dumps({"config": {"scheme": ["prss"]}}), "scheme = ['prss']"),
    "object_grid.json": (json.dumps({"config": {"phi_grid": {"a": 1}}}), "phi_grid = {'a': 1}"),
    "null_snr.json": (json.dumps({"config": {"snr_db_list": None}}), "snr_db_list = None"),
    "bool_rsr.json": (json.dumps({"config": {"rsr_db": True}}), "rsr_db = True"),
    # a misspelt key of the command's own section would silently run on a default
    "typo_key.ini": ("[ber]\ntrails = 5\nsnr-db-list = 10\nm = 4\nn = 2\n", "'trails'"),
    # an INI value is read verbatim: a % is no interpolation, just a bad number
    "percent_m.ini": ("[ber]\nm = %(x)s\n", "m = '%(x)s'"),
    "other_command.json": (json.dumps({"command": "phi-sweep", "config": {}}), "'phi-sweep'"),
}
# config paths that are directories, so they cannot be read
BAD_CONFIG_DIRS = ("dir_config", "dir_config.json")


@pytest.mark.parametrize("argv", [
    ["ber", "--qam", "8"],
    ["ber", "--phi", "0"],
    ["ber", "--snr-db-list", "nan"],
    ["ber", "--snr-db-list", "inf"],
    ["ber", "--snr-db-list", "4,-inf"],
    ["ber", "--rsr-db", "nan"],
    ["ber", "--phi", "nan"],
    ["phi-sweep", "--sigma-v-sq", "inf"],
    ["phi-sweep", "--phi-grid", "1.5,inf"],
    ["rsr-sweep", "--rsr-db-list", "20,nan"],
    ["rsr-sweep", "--sigma-v-sq-list", "inf"],
    ["trace-curve", "--phi-grid", "nan"],
    ["trace-curve", "--u-mod", "nan"],
    ["trace-curve", "--u-mod", "0"],
    ["trace-curve", "--u-mod", "-1"],
    ["trace-curve", "--sigma-v-sq", "inf"],
    ["trace-curve", "--sigma-v-sq", "-0.5"],
    ["ber", "--m", "8", "--n", "8", "--snr-db-list", "10", "--trials", "1"],
    ["ber", "--scheme", "single_shot", "--n", "16", "--snr-db-list", "10", "--trials", "1"],
    ["ber", "--config", "bad_m.ini"],
    ["ber", "--config", "bad_threads.json"],
    ["ber", "--config", "no_section.ini"],
    ["ber", "--config", "truncated.json"],
    ["ber", "--config", "list.json"],
    ["rsr-sweep", "--config", "fraction_m.json"],
    ["phi-sweep", "--config", "bool_samples.json"],
    ["ber", "--snr-db-list", "4", "--seed", "-3"],
    ["rsr-sweep", "--seed", "-1"],
    ["phi-sweep", "--seed", "-2"],
    ["ber", "--snr-db-list", "4", "--trials", str(2**32 + 1)],
    ["phi-sweep", "--m", "1", "--samples", str(2**32 + 1)],
    ["rsr-sweep", "--sigma-v-sq-list", "0.1,-0.1"],
    # reference magnitudes and noise variances that underflow to 0 or overflow
    ["rsr-sweep", "--rsr-db-list=-4000"],
    ["phi-sweep", "--rsr-db=-4000"],
    ["rsr-sweep", "--rsr-db-list=4000"],
    ["ber", "--rsr-db=4000"],
    ["ber", "--snr-db-list=-4000"],
    ["ber", "--config", "dir_config"],
    ["ber", "--config", "dir_config.json"],
    ["trace-curve", "--threads", "-3"],
    # trace-curve runs no trial: it has no geometry flags, and a seed must still be >= 0
    ["trace-curve", "--m", "5"],
    ["trace-curve", "--qam", "99"],
    ["trace-curve", "--seed", "-4"],
    ["ber", "--config", "list_snr.json"],
    ["ber", "--config", "list_scheme.json"],
    ["phi-sweep", "--config", "object_grid.json"],
    ["ber", "--config", "null_snr.json"],
    ["ber", "--config", "bool_rsr.json"],
    ["ber", "--detector", "zf", "--m", "4", "--n", "8", "--snr-db-list", "10", "--trials", "8"],
    # finite arguments whose predicted trace or MSE overflows or underflows
    ["trace-curve", "--u-mod", "1e200"],
    ["trace-curve", "--u-mod", "1e-200"],
    ["trace-curve", "--sigma-v-sq", "1e308"],
    ["ber", "--config", "typo_key.ini"],
    ["ber", "--config", "percent_m.ini"],
    ["ber", "--config", "other_command.json"],
    ["ber", "--snr-db-list", "4", "--target-errors", "-1"],
    ["phi-sweep", "--samples", "0"],
])
def test_bad_input_refused_before_any_trial(tmp_path, argv, capsys):
    for name, (text, _) in BAD_CONFIGS.items():
        (tmp_path / name).write_text(text)
    for name in BAD_CONFIG_DIRS:
        (tmp_path / name).mkdir()
    named = {*BAD_CONFIGS, *BAD_CONFIG_DIRS}
    argv = [str(tmp_path / a) if a in named else a for a in argv]
    out = tmp_path / "o"
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:  # argparse exits on a flag the command does not take
        code = exc.code
    assert code == 2
    assert not list(out.glob("*.csv"))
    err = capsys.readouterr().err
    for name, (_, key) in BAD_CONFIGS.items():
        if str(tmp_path / name) in argv:
            assert str(tmp_path / name) in err and key in err
    for name in BAD_CONFIG_DIRS:
        if str(tmp_path / name) in argv:
            assert f"cannot read config file {tmp_path / name}" in err


def test_a_percent_in_an_ini_list_is_a_bad_number(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[ber]\nsnr-db-list = 10%\nm = 4\nn = 2\n")
    out = tmp_path / "o"
    assert main(["ber", "--config", str(ini), "--out", str(out)]) == 2
    assert not list(out.glob("*.csv"))
    assert "cannot parse number list '10%'" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["ber", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # plotting is gone
        main(["ber", "--svg"])
    assert exc.value.code == 2


def test_config_file_precedence(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[ber]\nscheme = rf_baseline\ndetector = zf\nm = 4\nn = 2\n"
        "snr-db-list = 2,10\ntrials = 300\ntarget-errors = 50\n"
    )
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(BER_ARGS + ["--out", str(out1)]) == 0
    assert main(["ber", "--config", str(ini), "--out", str(out2)]) == 0
    assert (out1 / "ber.csv").read_bytes() == (out2 / "ber.csv").read_bytes()
    # flags override file keys
    assert main(["ber", "--config", str(ini), "--trials", "100", "--out", str(out3)]) == 0
    rows = (out3 / "ber.csv").read_text().splitlines()
    assert rows[1].split(",")[8] == "400"  # 100 trials * 2 users * 2 bits


def test_default_section_keys_may_serve_other_commands(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[DEFAULT]\nsamples = 64\n[ber]\nsnr-db-list = 10\nm = 4\nn = 2\n"
                   "trials = 8\n")
    assert main(["ber", "--config", str(ini), "--out", str(tmp_path / "o")]) == 0


def test_ini_without_the_commands_section_falls_back_to_default(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[DEFAULT]\nm = 4\nn = 2\ntrials = 8\nsnr-db-list = 10\n"
                   "[phi-sweep]\nsamples = 64\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ber", "--config", str(ini), "--out", str(out1)]) == 0
    assert main(["ber", "--m", "4", "--n", "2", "--trials", "8", "--snr-db-list", "10",
                 "--out", str(out2)]) == 0
    assert (out1 / "ber.csv").read_bytes() == (out2 / "ber.csv").read_bytes()


# a value other than the default for every config key of every command, at small sizes
EVERY_KEY = {
    "phi-sweep": {"m": "16", "n": "3", "rsr_db": "25", "sigma_v_sq": "0.05", "samples": "64",
                  "phi_grid": "1.2,0,-1.5", "qam": "4"},
    "rsr-sweep": {"m": "16", "n": "3", "rsr_db_list": "20,35", "sigma_v_sq_list": "0.05,0.001",
                  "samples": "64", "qam": "16"},
    "ber": {"m": "4", "n": "2", "scheme": "rf_baseline", "detector": "zf", "qam": "16",
            "rsr_db": "24", "snr_db_list": "6,12", "trials": "64", "target_errors": "10",
            "phi": "1.2"},
    "trace-curve": {"sigma_v_sq": "0.3", "u_mod": "0.8", "phi_grid": "0.5,0,1.5"},
}


@pytest.mark.parametrize("command", list(DEFAULTS))
def test_flags_and_config_keys_are_one_set(tmp_path, command):
    sub = next(a for a in _build_parser()._actions if isinstance(a.choices, dict)).choices[command]
    assert {a.dest for a in sub._actions} == {*DEFAULTS[command], "config", "out", "seed",
                                             "threads", "help"}
    assert set(EVERY_KEY[command]) == set(DEFAULTS[command])
    values = {**EVERY_KEY[command], "seed": "7", "threads": "1"}
    flags = [f for key, value in values.items() for f in (f"--{key.replace('_', '-')}", value)]
    # an INI key may be written with dashes or with underscores
    keys = [key.replace("_", "-") if i % 2 else key for i, key in enumerate(values)]
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[{command}]\n"
                   + "".join(f"{k} = {v}\n" for k, v in zip(keys, values.values())))
    stem = command.replace("-", "_")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, *flags, "--out", str(out1)]) == 0
    assert main([command, "--config", str(ini), "--out", str(out2)]) == 0
    assert (out1 / f"{stem}.csv").read_bytes() == (out2 / f"{stem}.csv").read_bytes()
    config = json.loads((out2 / f"{stem}.manifest.json").read_text())["config"]
    kinds = {**{key: type(d) for key, d in DEFAULTS[command].items()}, "seed": int, "threads": int}
    assert config == {key: kinds[key](value) for key, value in values.items()}
    assert all(config[key] != default for key, default in DEFAULTS[command].items())


@pytest.mark.parametrize("argv,csv_name", [
    (["phi-sweep", "--m", "24", "--n", "2", "--samples", "960",
      "--phi-grid", "1.5707963267948966,-0.7853981633974483,0.9"], "phi_sweep.csv"),
    (["rsr-sweep", "--m", "24", "--n", "3", "--samples", "960",
      "--rsr-db-list", "10,25,40", "--sigma-v-sq-list", "0.1,0.001"], "rsr_sweep.csv"),
])
def test_variance_csvs_identical_at_any_worker_count(tmp_path, argv, csv_name):
    csvs = []
    for threads in (1, 2, 3):
        out = tmp_path / str(threads)
        assert main(argv + ["--threads", str(threads), "--out", str(out)]) == 0
        csvs.append((out / csv_name).read_bytes())
    assert csvs[1] == csvs[0] and csvs[2] == csvs[0]
