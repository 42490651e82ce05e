"""Batch CLI: mode search -> coupling constant -> estimates -> simulation.

Verbs: modes, lambda, simulate, estimate. Every command is a pure function of
its config file: no wall clock, no RNG, byte-identical outputs for identical
inputs. Exit codes: 0 success, 1 empty result, 2 invalid input (config or
output path), 3 internal numerical failure.

This is the one module that writes files: every artifact goes through one
JSON writer (_write_json) or one CSV writer (_write_csv), and coupling.json
through one schema (_write_coupling), with or without a resonance.

A [sweep] runs its values one after another in this process, each after a
"[<field>=<value>]" stdout line and into the subdirectory of that name; a
failing value does not stop the rest, and the exit code is the largest.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import coupling, dynamics, wgm
from .config import ConfigError, RunConfig
from .constants import C_LIGHT

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


class _NoResonance(Exception):
    """The search window holds no resonance (exit 1)."""


def _sphere(cfg: RunConfig) -> wgm.SphereParams:
    return wgm.SphereParams(R=cfg.R, n=cfg.n, rho=cfg.rho, I=cfg.I)


def _find_modes(cfg: RunConfig):
    params = _sphere(cfg)
    window = (2.0 * math.pi / cfg.lambda_max, 2.0 * math.pi / cfg.lambda_min)
    modes = wgm.find_resonance(cfg.polarization, cfg.l, window, params,
                               scan_points=cfg.scan_points)
    return params, modes


def _amplitude_vector(cfg: RunConfig) -> np.ndarray:
    """Coherent amplitudes per m = -l..l, normalized to N photons."""
    alpha = np.zeros(2 * cfg.l + 1, dtype=complex)
    for m, c in cfg.amplitudes or ((cfg.l, 1.0),):
        alpha[m + cfg.l] = c
    total = np.sum(np.abs(alpha) ** 2)
    return alpha * math.sqrt(cfg.N / total) if total > 0 else alpha


# (Hz per displayed unit, unit) by --natural-units: rates are computed in SI;
# with hbar = c = 1 a rate in Hz becomes Hz / c
_RATE_UNIT = {False: (1.0, "Hz"), True: (C_LIGHT, "1/m (natural, c=hbar=1)")}


def _finite_or_null(value):
    """value with every non-finite float in it, however deeply nested in
    dicts, lists and tuples, replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path, payload):
    """The JSON artifact format: indent 2, sorted keys, trailing newline,
    strict RFC 8259 JSON: a non-finite float (e.g. the Q of a pole whose
    kappa_c underflows) is written as null, never as Infinity or NaN."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path, header, rows, comment=None):
    """The CSV artifact format, with LF line ends: a "# comment" line if
    given, the header's column names, then one line per row, each str value
    as it is and every other value by repr (a float reads back bit for bit).
    No value holds a comma, so none is quoted."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(header))
    lines.extend(",".join(v if isinstance(v, str) else repr(v) for v in row)
                 for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_coupling(path, lambda_, inertia, l, mode=None):
    """coupling.json: Lambda, I and l, with k0, kappa_c and Q of the mode
    that Lambda belongs to (null without one)."""
    k0, kappa_c, q = (None,) * 3 if mode is None else (mode.k0, mode.kappa_c, mode.Q)
    _write_json(path, {"lambda": lambda_, "I": inertia, "l": l,
                       "k0": k0, "kappa_c": kappa_c, "Q": q})


_MODE_COLUMNS = ("pol", "l", "k0", "lambda_vac", "kappa_c", "Q")
_TRAJECTORY_COLUMNS = ("t", "omega_x", "omega_y", "omega_z", "S_x", "S_y", "S_z",
                       "q_w", "q_x", "q_y", "q_z")


def cmd_modes(cfg: RunConfig, outdir: Path, natural=False):
    params, modes = _find_modes(cfg)
    rows = [(m.polarization, m.l, m.k0, m.lambda_vac, m.kappa_c, m.Q) for m in modes]
    _write_csv(outdir / "modes.csv", _MODE_COLUMNS, rows)
    _write_json(outdir / "modes.json", [dict(zip(_MODE_COLUMNS, row)) for row in rows])
    for m in modes:
        print(f"{m.polarization} l={m.l}  lambda_vac={m.lambda_vac:.6e} m  "
              f"k0={m.k0:.10e} 1/m  kappa_c={m.kappa_c:.6e} 1/m  Q={m.Q:.6e}")
    if not modes:
        raise _NoResonance


def _coupling_constants(cfg: RunConfig):
    params, modes = _find_modes(cfg)
    if not modes:
        raise _NoResonance
    best = max(modes, key=lambda m: m.Q)  # fundamental = narrowest resonance
    return params, coupling.compute_lambda(best, params)


def cmd_lambda(cfg: RunConfig, outdir: Path, natural=False):
    if cfg.n == 1.0:
        # no index contrast: eps - 1 = 0, so Lambda = 0 for any TE mode and
        # there is no resonance to attach it to (_run has rejected TM)
        params = _sphere(cfg)
        _write_coupling(outdir / "coupling.json", 0.0, params.I, cfg.l)
        print("Lambda = 0.000000")
        print(f"I = {params.I:.6e} kg m^2")
        print("Q = n/a (uniform medium has no resonance)")
        return
    params, cc = _coupling_constants(cfg)
    _write_coupling(outdir / "coupling.json", cc.lambda_, cc.I, cc.l, cc.mode)
    print(f"Lambda = {cc.lambda_:.6f}")
    print(f"I = {cc.I:.6e} kg m^2")
    print(f"Q = {cc.mode.Q:.6e}")


def cmd_simulate(cfg: RunConfig, outdir: Path, natural=False):
    params, cc = _coupling_constants(cfg)
    s_vec = coupling.optical_S_from_amplitudes(_amplitude_vector(cfg))
    initial = dynamics.SpinState(omega=np.array(cfg.omega0), S=s_vec.S)
    traj = dynamics.simulate(initial, cc, cfg.dt, cfg.n_steps, cfg.sample_every)
    # t, omega, S and orientation per sample, as float64; K and H_r follow
    # from a row and summary.json's lambda and I
    _write_csv(outdir / "trajectory.csv", _TRAJECTORY_COLUMNS,
               np.column_stack((traj.t, traj.omega.astype(float), traj.S.astype(float),
                                traj.orientation.astype(float))).tolist(),
               comment="t [s]; omega [rad/s]; S [hbar units]; "
                       "q = orientation, unit quaternion, scalar first")

    hz_per_unit, unit = _RATE_UNIT[natural]
    rad_per_unit = 2.0 * math.pi * hz_per_unit
    k0_vec = traj.K[0]
    k_norm = float(np.linalg.norm(k0_vec))
    predicted = cc.lambda_ * k_norm / cc.I / rad_per_unit if k_norm else None
    measured_rad = dynamics.precession_frequency(traj.t, traj.omega, k0_vec)
    measured = None if measured_rad is None else measured_rad / rad_per_unit

    drift = traj.drift
    summary = {
        "precession_hz_measured": measured,
        "precession_hz_predicted": predicted,
        "drift_abs_S": drift["abs_S"],
        "drift_abs_omega": drift["abs_omega"],
        "drift_K": drift["K"],
        "drift_Hr": drift["H_r"],
        "lambda": cc.lambda_,
        "I": cc.I,
        "units": unit,
    }
    _write_json(outdir / "summary.json", summary)
    for key in sorted(summary):
        print(f"{key} = {summary[key]}")


def cmd_estimate(cfg: RunConfig, outdir: Path, natural=False):
    hz_per_unit, unit = _RATE_UNIT[natural]
    params, cc = _coupling_constants(cfg)
    est = coupling.precession_rate_estimate(params, cfg.N, cfg.l, cc.lambda_)
    exact, simplified = est.exact_hz / hz_per_unit, est.simplified_hz / hz_per_unit
    q_used = cfg.Q if cfg.Q is not None else cc.mode.Q
    m_list = cfg.m_list if cfg.m_list is not None else tuple(
        m for m in (1, 10, 120) if m <= cfg.l)
    thresholds = {}
    for m in m_list:
        w_min = coupling.resolvability_threshold(cc.lambda_, m, q_used, cc.mode.k0)
        thresholds[str(m)] = w_min / (2.0 * math.pi) / hz_per_unit

    print(f"Lambda = {cc.lambda_:.6f}   Q used for threshold = {q_used:.3e}")
    print(f"precession exact      = {exact:.6e} {unit}")
    print(f"precession simplified = {simplified:.6e} {unit}")
    print(f"Zeeman resolvability threshold (spin rate, {unit}):")
    for m in m_list:
        print(f"  m={m:>4d}: {thresholds[str(m)]:.6e}")
    _write_json(outdir / "estimates.json", {
        "lambda": cc.lambda_,
        "Q": q_used,
        "precession_hz_exact": exact,
        "precession_hz_simplified": simplified,
        "threshold_hz_by_m": thresholds,
        "units": unit,
    })


_COMMANDS = {
    "modes": cmd_modes,
    "lambda": cmd_lambda,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
}


def _config_error(exc: ConfigError) -> int:
    for fieldname, message in exc.errors:
        print(f"config error: {fieldname}: {message}", file=sys.stderr)
    return EXIT_INVALID


def _run(verb, cfg, outdir, natural) -> int:
    """Run one verb on one config into outdir, first naming a sweep's value on
    stdout; return the outcome as an exit code. Every verb but modes needs
    Lambda, which is defined for TE only. outdir is made by the first write,
    so a run that ends before one (a TM config here) leaves no directory."""
    if cfg.sweep_field is not None:
        print(f"[{outdir.name}]")
    try:
        if verb != "modes" and cfg.polarization != "TE":
            raise ConfigError([("mode_search.polarization",
                                "coupling constant is defined for TE modes only")])
        _COMMANDS[verb](cfg, outdir, natural=natural)
    except _NoResonance:
        print("no resonance in window")
        return EXIT_EMPTY
    except ConfigError as exc:
        return _config_error(exc)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wgmspin",
        description="Whispering-gallery resonances and rotational "
                    "optomechanical coupling of a dielectric sphere")
    parser.add_argument("verb", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default=None, help="output directory "
                        "(default: [output] directory from the config)")
    parser.add_argument("--natural-units", action="store_true",
                        help="display the rates of estimate and simulate with "
                             "hbar = c = 1 (modes and lambda print no rates)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        cfg = RunConfig.from_file(args.config)
        outdir = Path(args.out if args.out is not None else cfg.directory)
        runs = {outdir: cfg}
        if cfg.sweep_field is not None:
            runs = {outdir / f"{cfg.sweep_field}={v}": cfg.with_value(cfg.sweep_field, v)
                    for v in cfg.sweep_values}
    except ConfigError as exc:
        return _config_error(exc)
    return max(_run(args.verb, sub_cfg, sub, args.natural_units)
               for sub, sub_cfg in runs.items())


if __name__ == "__main__":
    raise SystemExit(main())
