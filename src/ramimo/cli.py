"""Command-line front end: runs sweeps, writes CSV + manifest.

Config precedence is flags > config file > built-in defaults.  A config file
is either an INI file with one section per command or a manifest JSON written
by a previous run; re-running a manifest reproduces its CSV byte-for-byte.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone
from functools import lru_cache

from . import __version__
from .montecarlo import (
    DETECTORS,
    SCHEMES,
    ExperimentConfig,
    default_phi_grid,
    run_ber_sweep,
    run_environment,
    run_phi_sweep,
    run_rsr_sweep,
    split_singular,
)
from .reconstruct import predicted_mse, predicted_trace

# each command's options and their built-in defaults: every key is a flag and
# a config key of its default's type (the m=512/n=2 variance-study geometry
# keeps the Taylor bias small while vectorizing the per-receiver statistics)
DEFAULTS = {
    "phi-sweep": {
        "m": 512, "n": 2, "rsr_db": 30.0, "sigma_v_sq": 0.1,
        "samples": 200_000, "phi_grid": "", "qam": 0,
    },
    "rsr-sweep": {
        "m": 512, "n": 2, "rsr_db_list": "15,20,25,30,35,40,45",
        "sigma_v_sq_list": "0.1,0.01,0.001", "samples": 100_000, "qam": 0,
    },
    "ber": {
        "m": ExperimentConfig.m, "n": ExperimentConfig.n, "scheme": ExperimentConfig.scheme,
        "detector": ExperimentConfig.detector, "qam": ExperimentConfig.qam_order,
        "rsr_db": ExperimentConfig.rsr_db, "snr_db_list": "0,2,4,6,8,10,12,14,16",
        "trials": 20_000, "target_errors": ExperimentConfig.target_errors,
        "phi": ExperimentConfig.phi,
    },
    "trace-curve": {"sigma_v_sq": 0.1, "u_mod": 1.0, "phi_grid": ""},
}

class UsageError(ValueError):
    pass


def _usable_cores() -> int:
    """Cores this process may run on (its CPU affinity, where the OS reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# resolved keys whose ExperimentConfig field has another name
_FIELDS = {"qam": "qam_order", "seed": "master_seed", "threads": "workers", "phi_grid": "phi_list"}


def _checked_config(resolved: dict) -> ExperimentConfig:
    """A trial command's config from every resolved key (the sweeps, which have
    no `scheme` key, run ExperimentConfig's default, prss). Each `*_list` key's
    number list must not be empty; validation failures are usage errors."""
    kwargs = {}
    for key, value in resolved.items():
        if key.endswith("_list"):
            value = _float_list(value)
            if not value:
                raise UsageError(f"--{key.replace('_', '-')} must not be empty")
        kwargs[_FIELDS.get(key, key)] = value
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _g(x) -> str:
    """Stable CSV float formatting."""
    return format(float(x), ".12g")


def _float_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse number list {text!r}") from exc


# help text of each config key, shared by every command that reads it
_HELP = {
    "m": "number of receivers",
    "n": "number of user antennas",
    "qam": "QAM order (0 = scheme default)",
    "rsr_db": "reference-to-signal ratio in dB",
    "sigma_v_sq": "receiver noise variance",
    "samples": "receiver samples per sweep point",
    "phi_grid": "comma list of offsets in radians (default: pi/36 grid)",
    "rsr_db_list": "comma list of RSR values in dB",
    "sigma_v_sq_list": "comma list of noise variances",
    "snr_db_list": "comma list of SNR points in dB",
    "trials": "max trials per SNR point",
    "target_errors": "bit-error stopping target (0 = run all)",
    "phi": "dual-slot phase offset in radians",
    "u_mod": "phase-normalizer modulus (default 1)",
}


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    more than a small sweep's trials, and parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="ramimo",
        description="Amplitude-only atomic MIMO link simulator: "
        "noise-variance and BER experiments.",
    )
    parser.add_argument("--version", action="version", version=f"ramimo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in DEFAULTS.items():
        p = sub.add_parser(command, help=_RUNNERS[command].__doc__)
        p.add_argument("--config", help="INI config or manifest JSON from a previous run")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int,
                       help=f"master seed (default {ExperimentConfig.master_seed})")
        p.add_argument("--threads", type=int,
                       help="processes that run trials; workers start only where they "
                            "pay for themselves (default: at most one per usable core)")
        for key, default in defaults.items():
            p.add_argument(f"--{key.replace('_', '-')}", type=type(default), help=_HELP.get(key),
                           choices={"scheme": SCHEMES, "detector": DETECTORS}.get(key))
    return parser


def _open_config(path: str):
    try:
        return open(path, encoding="utf-8")
    except OSError as exc:  # missing, a directory, unreadable
        raise UsageError(f"cannot read config file {path}: {exc.strerror or exc}") from exc


def _load_config_layer(path: str, command: str, keys) -> dict:
    if path.endswith(".json"):
        with _open_config(path) as fh:
            try:
                manifest = json.load(fh)
            except ValueError:  # not JSON, or not UTF-8
                manifest = None
        if not isinstance(manifest, dict) or not isinstance(manifest.get("config", {}), dict):
            raise UsageError(f"{path}: not a JSON manifest or config object")
        if manifest.get("command") not in (None, command):
            raise UsageError(
                f"{path}: manifest was written by {manifest.get('command')!r}, not {command!r}"
            )
        return dict(manifest.get("config", manifest))
    ini = configparser.ConfigParser(interpolation=None)  # a value is read verbatim
    with _open_config(path) as fh:
        try:
            ini.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise UsageError(f"{path}: not an INI config: {exc}") from exc
    if not ini.has_section(command):
        return {k.replace("-", "_"): v for k, v in ini.items("DEFAULT")}
    for key in ini.options(command):  # [DEFAULT]'s keys may serve another command
        if key not in ini.defaults() and key.replace("-", "_") not in keys:
            raise UsageError(f"{path}: {key!r} is not a key of [{command}]")
    return {k.replace("-", "_"): v for k, v in ini.items(command)}


def _coerce(value, kind: type, where: str):
    """A config file's value as the type of its key's default. Only a string
    or a number is a value (a number list is one string): a JSON list, object,
    null or boolean is refused, and so is a fractional or non-finite number
    for an integer key, rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        raise UsageError(f"{where} = {value!r} is not a valid {kind.__name__}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{where} = {value!r} is not a valid {kind.__name__}") from exc


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Materialize the full config: flags over config file over defaults."""
    defaults = {
        **DEFAULTS[command], "seed": ExperimentConfig.master_seed, "threads": _usable_cores(),
    }
    layer = _load_config_layer(args.config, command, defaults) if args.config else {}
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in layer:
            resolved[key] = _coerce(layer[key], type(default), f"{args.config}: {key}")
        else:
            resolved[key] = default
    if resolved["threads"] < 1:
        raise UsageError(f"threads must be >= 1, got {resolved['threads']}")
    if resolved["seed"] < 0:
        raise UsageError(f"seed must be >= 0, got {resolved['seed']}")
    return resolved


def _write_csv(path: str, header: list[str], rows, comments=()) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for comment in comments:
            fh.write(f"# {comment}\n")
        writer.writerows(rows)


def _table(records: list) -> tuple[list[str], list[list]]:
    """A sweep's CSV header and rows: the header is its record type's field
    names, in order, and a field declared float is written through `_g`."""
    columns = [(f.name, f.type == "float") for f in fields(records[0])]
    rows = [[_g(getattr(r, name)) if is_float else getattr(r, name) for name, is_float in columns]
            for r in records]
    return [name for name, _ in columns], rows


def _write_manifest(path: str, command: str, resolved: dict, outputs: list[str],
                    telemetry: dict) -> None:
    manifest = {
        "command": command,
        "config": resolved,
        "master_seed": resolved["seed"],
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
        # how the run executed; never read back, so replaying stays byte-identical
        "env": run_environment(resolved["threads"], telemetry["workers_started"]),
        # threads - 1 if the run forked its workers, 0 if it never did
        "workers_started": telemetry["workers_started"],
        "note": "channel, reference and noise are redrawn every trial (fast fading)",
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")


def _phi_grid_from(resolved: dict) -> tuple[tuple[float, ...], list[str]]:
    """Usable offsets of the requested grid, and a CSV comment per skipped one (warned about)."""
    requested = _float_list(resolved["phi_grid"]) or default_phi_grid()
    if not all(math.isfinite(p) for p in requested):
        raise UsageError(f"phi grid must hold finite numbers, got {requested}")
    usable, skipped = split_singular(requested)
    for p in skipped:
        print(f"warning: skipping phi={p!r}: singular offset", file=sys.stderr)
    if not usable:
        raise UsageError("phi grid contains no usable (non-singular) offsets")
    return usable, [f"skipped phi={_g(p)}: singular offset" for p in skipped]


def _cmd_phi_sweep(resolved: dict, telemetry: dict) -> tuple[list[str], list, list[str]]:
    """reconstruction error vs phase offset"""
    usable, comments = _phi_grid_from(resolved)
    cfg = _checked_config({**resolved, "phi_grid": usable})
    return *_table(run_phi_sweep(cfg, telemetry)), comments


def _cmd_rsr_sweep(resolved: dict, telemetry: dict) -> tuple[list[str], list, list[str]]:
    """reconstruction error vs reference strength"""
    return *_table(run_rsr_sweep(_checked_config(resolved), telemetry)), []


def _cmd_ber(resolved: dict, telemetry: dict) -> tuple[list[str], list, list[str]]:
    """BER vs SNR for one scheme/detector"""
    return *_table(run_ber_sweep(_checked_config(resolved), telemetry)), []


def _cmd_trace_curve(resolved: dict, telemetry: dict) -> tuple[list[str], list, list[str]]:
    """analytic error-amplification curves"""
    u_mod = resolved["u_mod"]
    sv = resolved["sigma_v_sq"]
    if not (math.isfinite(u_mod) and u_mod > 0):
        raise UsageError(f"u-mod must be finite and > 0, got {u_mod}")
    if not (math.isfinite(sv) and sv >= 0):
        raise UsageError(f"sigma-v-sq must be finite and >= 0, got {sv}")
    usable, comments = _phi_grid_from(resolved)
    rows = [[p, predicted_trace(p, u_mod), predicted_mse(p, sv), sv, u_mod] for p in usable]
    for p, trace, mse, _, _ in rows:  # an extreme u-mod or sigma-v-sq overflows them
        if not (math.isfinite(trace) and trace > 0 and math.isfinite(mse)):
            raise UsageError(f"predicted trace {trace} or MSE {mse} at phi={p} is out of range")
    header = ["phi_rad", "predicted_trace", "predicted_mse", "sigma_v_sq", "u_mod"]
    return header, [[_g(v) for v in row] for row in rows], comments


_RUNNERS = {
    "phi-sweep": _cmd_phi_sweep,
    "rsr-sweep": _cmd_rsr_sweep,
    "ber": _cmd_ber,
    "trace-curve": _cmd_trace_curve,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    stem = os.path.join(args.out, command.replace("-", "_"))
    telemetry = {"workers_started": 0}
    try:
        resolved = _resolve(args, command)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:  # an existing file, say, or a read-only parent
            raise UsageError(f"cannot create output directory {args.out}: {exc.strerror or exc}")
        header, rows, comments = _RUNNERS[command](resolved, telemetry)
        _write_csv(f"{stem}.csv", header, rows, comments)
        _write_manifest(f"{stem}.manifest.json", command, resolved, [f"{stem}.csv"], telemetry)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {stem}.csv\nwrote {stem}.manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
