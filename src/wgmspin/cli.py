"""Batch CLI: mode search -> coupling constant -> estimates -> simulation.

Verbs: modes, lambda, simulate, estimate. Every command is a pure function of
its config file: no wall clock, no RNG, byte-identical outputs for identical
inputs. Exit codes: 0 success, 1 empty result, 2 invalid input, 3 internal
numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import coupling, dynamics, wgm
from .config import ConfigError, RunConfig
from .constants import C_LIGHT
from .wgm import _write_json

log = logging.getLogger("wgmspin")

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _sphere(cfg: RunConfig) -> wgm.SphereParams:
    return wgm.SphereParams(R=cfg.R, n=cfg.n, rho=cfg.rho, I=cfg.I)


def _find_modes(cfg: RunConfig):
    params = _sphere(cfg)
    window = (2.0 * math.pi / cfg.lambda_max, 2.0 * math.pi / cfg.lambda_min)
    modes = wgm.find_resonance(cfg.polarization, cfg.l, window, params,
                               scan_points=cfg.scan_points)
    return params, modes


def _best_mode(modes):
    # fundamental = narrowest resonance in the window
    return max(modes, key=lambda m: m.Q)


def _amplitude_vector(cfg: RunConfig) -> np.ndarray:
    """Coherent amplitudes per m = -l..l, normalized to N photons."""
    dim = 2 * cfg.l + 1
    alpha = np.zeros(dim, dtype=complex)
    if cfg.amplitudes:
        for m, c in cfg.amplitudes:
            alpha[m + cfg.l] = c
        total = np.sum(np.abs(alpha) ** 2)
        if total > 0:
            alpha *= math.sqrt(cfg.N / total)
    else:
        m = cfg.l if cfg.m is None else cfg.m
        alpha[m + cfg.l] = math.sqrt(cfg.N)
    return alpha


# (Hz per displayed unit, unit) by --natural-units: rates are computed in SI;
# with hbar = c = 1 a rate in Hz becomes Hz / c
_RATE_UNIT = {False: (1.0, "Hz"), True: (C_LIGHT, "1/m (natural, c=hbar=1)")}


def cmd_modes(cfg: RunConfig, outdir: Path, natural=False) -> int:
    params, modes = _find_modes(cfg)
    if "csv" in cfg.formats:
        wgm.modes_to_csv(modes, outdir / "modes.csv")
    if "json" in cfg.formats:
        wgm.modes_to_json(modes, outdir / "modes.json")
    for m in modes:
        print(f"{m.polarization} l={m.l}  lambda_vac={m.lambda_vac:.6e} m  "
              f"k0={m.k0:.10e} 1/m  kappa_c={m.kappa_c:.6e} 1/m  Q={m.Q:.6e}")
    if not modes:
        print("no resonance in window")
        return EXIT_EMPTY
    return EXIT_OK


def _coupling_constants(cfg: RunConfig):
    if cfg.polarization != "TE":
        raise ConfigError([("mode_search.polarization",
                            "coupling constant is defined for TE modes only")])
    params, modes = _find_modes(cfg)
    if not modes:
        return params, None
    return params, coupling.compute_lambda(_best_mode(modes), params)


def cmd_lambda(cfg: RunConfig, outdir: Path, natural=False) -> int:
    if cfg.n == 1.0:
        # no index contrast: eps - 1 = 0, so Lambda = 0 for any mode and
        # there is no resonance to attach it to
        params = _sphere(cfg)
        _write_json(outdir / "coupling.json",
                    {"lambda": 0.0, "I": params.I, "l": cfg.l,
                     "k0": None, "kappa_c": None, "Q": None})
        print("Lambda = 0.000000")
        print(f"I = {params.I:.6e} kg m^2")
        print("Q = n/a (uniform medium has no resonance)")
        return EXIT_OK
    params, cc = _coupling_constants(cfg)
    if cc is None:
        print("no resonance in window")
        return EXIT_EMPTY
    coupling.coupling_to_json(cc, outdir / "coupling.json")
    print(f"Lambda = {cc.lambda_:.6f}")
    print(f"I = {cc.I:.6e} kg m^2")
    print(f"Q = {cc.mode.Q:.6e}")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, outdir: Path, natural=False) -> int:
    params, cc = _coupling_constants(cfg)
    if cc is None:
        print("no resonance in window")
        return EXIT_EMPTY
    s_vec = coupling.optical_S_from_amplitudes(_amplitude_vector(cfg))
    initial = dynamics.SpinState(omega=np.array(cfg.omega0), S=s_vec.S)
    traj = dynamics.simulate(initial, cc, cfg.dt, cfg.n_steps, cfg.sample_every)
    dynamics.trajectory_to_csv(traj, outdir / "trajectory.csv")

    hz_per_unit, unit = _RATE_UNIT[natural]
    rad_per_unit = 2.0 * math.pi * hz_per_unit
    k0_vec = traj.K[0]
    k_norm = float(np.linalg.norm(k0_vec))
    predicted = cc.lambda_ * k_norm / cc.I / rad_per_unit if k_norm else None
    omegas = np.array([s.omega.astype(float) for s in traj.samples])
    measured_rad = dynamics.precession_frequency(traj.t, omegas, k0_vec)
    measured = None if measured_rad is None else measured_rad / rad_per_unit

    drift = traj.drift
    summary = {
        "precession_hz_measured": measured,
        "precession_hz_predicted": predicted,
        "drift_abs_S": drift["abs_S"],
        "drift_abs_omega": drift["abs_omega"],
        "drift_K": drift["K"],
        "drift_Hr": drift["H_r"],
        "units": unit,
    }
    _write_json(outdir / "summary.json", summary)
    for key in sorted(summary):
        print(f"{key} = {summary[key]}")
    return EXIT_OK


def cmd_estimate(cfg: RunConfig, outdir: Path, natural=False) -> int:
    hz_per_unit, unit = _RATE_UNIT[natural]
    params, cc = _coupling_constants(cfg)
    if cc is None:
        print("no resonance in window")
        return EXIT_EMPTY
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
    return EXIT_OK


_COMMANDS = {
    "modes": cmd_modes,
    "lambda": cmd_lambda,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
}


def _run_single(verb, cfg, outdir, natural):
    outdir.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[verb](cfg, outdir, natural=natural)


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
        if cfg.sweep_field is None:
            return _run_single(args.verb, cfg, outdir, args.natural_units)
        values = cfg.sweep_values
        sub_cfgs = [cfg.with_value(cfg.sweep_field, v) for v in values]
        problems = [(f, f"{m} ({cfg.sweep_field} = {v})")
                    for v, sub_cfg in zip(values, sub_cfgs) for f, m in sub_cfg.validate()]
        if problems:
            raise ConfigError(problems)
        subs = [outdir / f"{cfg.sweep_field}={v}" for v in values]
        with concurrent.futures.ProcessPoolExecutor() as pool:
            codes = list(pool.map(_run_single, [args.verb] * len(values), sub_cfgs,
                                  subs, [args.natural_units] * len(values)))
        return max(codes)
    except ConfigError as exc:
        for fieldname, message in exc.errors:
            print(f"config error: {fieldname}: {message}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OverflowError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
