"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure next to its contractual tolerance (run with -s to see
them live)."""

import math
import time

import numpy as np
import pytest

from wgmspin import cli
from wgmspin.constants import C_LIGHT, HBAR
from wgmspin.coupling import (
    CouplingConstants,
    compute_lambda,
    precession_rate_estimate,
    resolvability_threshold,
)
from wgmspin.dynamics import (
    SpinState,
    conserved_K,
    precession_frequency,
    simulate,
    step_general,
    step_wgm,
)
from wgmspin.specfun import angular_momentum_matrices, riccati_bessel, \
    spherical_bessel_j, spherical_hankel1
from wgmspin.wgm import SphereParams, attach_profile, find_resonance

from oracles import mp_spherical

REF_WAVELENGTH = 743.25e-9


@pytest.fixture(scope="module")
def ref_params():
    return SphereParams(R=10e-6, n=math.sqrt(2.31))


@pytest.fixture(scope="module")
def reference_benchmark(ref_params):
    t0 = time.perf_counter()
    window = (2 * math.pi / 751e-9, 2 * math.pi / 736e-9)
    modes = find_resonance("TE", 120, window, ref_params)
    assert len(modes) == 1
    cc = compute_lambda(attach_profile(modes[0], ref_params), ref_params)
    elapsed = time.perf_counter() - t0
    return modes[0], cc, elapsed


def test_criterion_1_lambda_benchmark(reference_benchmark):
    mode, cc, elapsed = reference_benchmark
    lam_err = abs(mode.lambda_vac - REF_WAVELENGTH) / REF_WAVELENGTH
    assert lam_err < 0.005
    assert abs(cc.lambda_ - 1.12) <= 0.05
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: lambda_vac={mode.lambda_vac*1e9:.4f} nm "
          f"(offset {lam_err:.2e} < 0.5%), Lambda={cc.lambda_:.4f} "
          f"(=1.12+-0.05), runtime {elapsed:.2f}s < 10s")


def test_criterion_2_precession_order(ref_params):
    est = precession_rate_estimate(ref_params, 1e5, 120, 1.12)
    assert 1e-6 <= est.simplified_hz <= 1e-4
    print(f"\nACCEPTANCE 2 PASS: simplified precession "
          f"{est.simplified_hz:.3e} Hz in [1e-6, 1e-4]")


def test_criterion_3_zeeman_threshold(reference_benchmark):
    mode, cc, _ = reference_benchmark
    hz = {m: resolvability_threshold(cc.lambda_, m, 1e10, mode.k0) / (2 * math.pi)
          for m in range(1, 121)}
    in_band = [m for m, v in hz.items() if 1e2 <= v <= 1e4]
    assert in_band, "no m within one order of magnitude of 1 kHz"
    assert 1e2 <= hz[120] <= 1e3
    print(f"\nACCEPTANCE 3 PASS: threshold(m=120)={hz[120]:.1f} Hz (~3e2), "
          f"{len(in_band)} of 120 m values inside [1e2, 1e4] Hz")


def _reference_dynamics():
    params = SphereParams(R=10e-6, n=math.sqrt(2.31))
    from wgmspin.wgm import ModeRecord
    mode = ModeRecord(polarization="TE", l=120, k0=2 * math.pi / REF_WAVELENGTH,
                      kappa_c=1.0, Q=2 * math.pi / REF_WAVELENGTH)
    cc = CouplingConstants(lambda_=1.12, I=params.I, mode=mode, l=120)
    tilt = 0.4
    s_mag = 1e5 * 120.0
    state = SpinState(
        omega=np.array([1e-9 * math.sin(0.2), 0.0, 1e-9 * math.cos(0.2)]),
        S=s_mag * np.array([math.sin(tilt), 0.0, math.cos(tilt)]))
    return cc, state


def test_criterion_4_conservation_million_steps():
    cc, state = _reference_dynamics()
    t0 = time.perf_counter()
    traj = simulate(state, cc, 1.2e4, 1_000_000, sample_every=10_000)
    elapsed = time.perf_counter() - t0
    d_s = np.max(np.abs(traj.abs_S - traj.abs_S[0])) / traj.abs_S[0]
    d_w = np.max(np.abs(traj.abs_omega - traj.abs_omega[0])) / traj.abs_omega[0]
    d_k = np.max(np.abs(traj.K - traj.K[0])) / np.linalg.norm(traj.K[0])
    d_h = np.max(np.abs(traj.H_r - traj.H_r[0])) / abs(traj.H_r[0])
    assert d_s <= 1e-13
    assert d_w <= 1e-13
    assert d_k <= 1e-12
    assert d_h <= 1e-10
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: 1e6 steps in {elapsed:.1f}s; drifts "
          f"|S| {d_s:.1e} <= 1e-13, |omega| {d_w:.1e} <= 1e-13, "
          f"K {d_k:.1e} <= 1e-12, H_r {d_h:.1e} <= 1e-10")


def test_criterion_5_closed_form_oracle():
    cc, state = _reference_dynamics()
    dt, n = 1.2e4, 10_000
    k0 = conserved_K(state, cc).astype(float)
    u = k0 / np.linalg.norm(k0)
    rate = cc.lambda_ * np.linalg.norm(k0) / cc.I
    s0 = state.S.astype(float)

    def oracle(t):
        # single Rodrigues rotation of S(0) about fixed K, per sample time
        ang = rate * t
        return (s0 * math.cos(ang) + np.cross(u, s0) * math.sin(ang)
                + u * np.dot(u, s0) * (1 - math.cos(ang)))

    cur = state
    worst = 0.0
    for i in range(1, n + 1):
        cur = step_wgm(cur, dt, cc)
        if i % 500 == 0:
            want = oracle(i * dt)
            got = cur.S.astype(float)
            # sine metric: acos quantizes at sqrt(eps) ~ 2e-8 rad near zero
            ang = math.atan2(np.linalg.norm(np.cross(want, got)),
                             float(np.dot(want, got)))
            worst = max(worst, ang)
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 5 PASS: max angular deviation from closed-form "
          f"precession {worst:.2e} rad <= 1e-8 over {n} steps")


def test_criterion_6_constant_torque_precession():
    inertia, big_g = 2.0, 3.0

    def provider(t):
        return np.array([0.0, 0.0, big_g]), np.zeros(3)

    state = SpinState(omega=[1.0, 0.0, 0.8], S=[0.0, 0.0, 0.0])
    dt, n = 0.02 * inertia / big_g, 3000
    times, omegas = [0.0], [state.omega.astype(float)]
    cur = state
    for _ in range(n):
        cur = step_general(cur, dt, inertia, provider, project_omega_norm=True)
        times.append(cur.t)
        omegas.append(cur.omega.astype(float))
    rate = precession_frequency(times, omegas, np.array([0.0, 0.0, 1.0]))
    rel = abs(rate - big_g / inertia) / (big_g / inertia)
    norms = np.linalg.norm(np.array(omegas), axis=1)
    norm_drift = np.max(np.abs(norms - norms[0])) / norms[0]
    assert rel <= 1e-6
    assert norm_drift <= 1e-12
    print(f"\nACCEPTANCE 6 PASS: measured precession |Gamma|/I rel err "
          f"{rel:.2e} <= 1e-6; |omega| drift {norm_drift:.1e} (exact)")


def test_criterion_7_special_function_accuracy():
    rng = np.random.default_rng(20260811)
    worst_j = worst_h = worst_w = 0.0
    n_j = n_h = 0
    while n_j + n_h < 1000:
        l = int(rng.integers(0, 201))
        x = float(rng.uniform(0.3, 300.0))
        if (n_j + n_h) % 2 == 0:
            z = complex(x, 0.0) if rng.random() < 0.5 else \
                complex(x, float(rng.uniform(-1.0, 1.0)))
            ref = mp_spherical(l, z)
            if not (1e-260 < abs(ref) < 1e260):
                continue
            worst_j = max(worst_j, abs(spherical_bessel_j(l, z) - ref) / abs(ref))
            n_j += 1
        else:
            z = complex(x, float(rng.uniform(-1.0, 1.0)))
            ref = mp_spherical(l, z, hankel=True)
            if not (1e-260 < abs(ref) < 1e260):
                continue
            worst_h = max(worst_h, abs(spherical_hankel1(l, z) - ref) / abs(ref))
            n_h += 1
        psi, psip, xi, xip = riccati_bessel(l, z)
        worst_w = max(worst_w, abs(psi * xip - psip * xi - 1j))
    assert worst_j <= 1e-10
    assert worst_h <= 1e-10
    assert worst_w <= 1e-10
    print(f"\nACCEPTANCE 7 PASS: over {n_j}+{n_h} samples (l<=200, |x|<=300) "
          f"worst rel err j {worst_j:.1e}, h1 {worst_h:.1e}, "
          f"Wronskian residual {worst_w:.1e}, all <= 1e-10")


def test_criterion_8_angular_momentum_algebra():
    worst = 0.0
    for l in (1, 2, 3, 120):
        mats = angular_momentum_matrices(l)
        lx, ly, lz = mats.Lx, mats.Ly, mats.Lz
        for a in (lx, ly, lz):
            worst = max(worst, float(np.max(np.abs(a - a.conj().T))))
        for a, b, c in ((lx, ly, lz), (ly, lz, lx), (lz, lx, ly)):
            worst = max(worst, float(np.max(np.abs(a @ b - b @ a - 1j * c))))
        cas = lx @ lx + ly @ ly + lz @ lz - l * (l + 1) * np.eye(2 * l + 1)
        worst = max(worst, float(np.max(np.abs(cas))))
        dim = 2 * l + 1
        dm = np.arange(dim)[:, None] - np.arange(dim)[None, :]
        assert np.all(lx[np.abs(dm) != 1] == 0)
        assert np.all(ly[np.abs(dm) != 1] == 0)
        assert np.all(lz[dm != 0] == 0)
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 8 PASS: Hermiticity/commutator/Casimir residual "
          f"{worst:.1e} <= 1e-12 for l in (1,2,3,120); selection rules exact")


def test_criterion_9_time_reversibility():
    from wgmspin.wgm import ModeRecord
    mode = ModeRecord(polarization="TE", l=3, k0=1e6, kappa_c=1.0, Q=1e6)
    cc = CouplingConstants(lambda_=1.37, I=0.8, mode=mode, l=3)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        s = rng.uniform(-1e3, 1e3, 3)
        w = rng.uniform(-1e3, 1e3, 3)
        cur = SpinState(omega=w, S=s)
        for _ in range(300):
            cur = step_wgm(cur, 1e-3, cc, hbar=1.0)
        cur = SpinState(omega=-cur.omega, S=-cur.S)
        for _ in range(300):
            cur = step_wgm(cur, 1e-3, cc, hbar=1.0)
        worst = max(worst,
                    float(np.max(np.abs(-cur.S.astype(float) - s))),
                    float(np.max(np.abs(-cur.omega.astype(float) - w))))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 9 PASS: forward+backward return error {worst:.1e} "
          f"<= 1e-10 absolute over 20 random states")


def test_criterion_10_reproducibility(tmp_path):
    fast_cfg = tmp_path / "fast.cfg"
    fast_cfg.write_text(
        "[sphere]\nR = 10e-6\nn = 1.52\n\n"
        "[mode_search]\npolarization = TE\nl = 9\n"
        "lambda_min = 6.8e-6\nlambda_max = 8.6e-6\nscan_points = 1500\n\n"
        "[coupling]\nN = 1e4\n\n"
        "[simulation]\ndt = 1.0\nn_steps = 200\nsample_every = 10\n"
        "omega0 = 1e-6, 0, 2e-7\n")
    outputs = {}
    for run in ("a", "b"):
        lam_dir = tmp_path / f"lam_{run}"
        sim_dir = tmp_path / f"sim_{run}"
        assert cli.main(["lambda", "--config", "configs/reference.cfg",
                         "--out", str(lam_dir)]) == 0
        assert cli.main(["simulate", "--config", str(fast_cfg),
                         "--out", str(sim_dir)]) == 0
        outputs[run] = {
            "coupling": (lam_dir / "coupling.json").read_bytes(),
            "trajectory": (sim_dir / "trajectory.csv").read_bytes(),
            "summary": (sim_dir / "summary.json").read_bytes(),
        }
    assert outputs["a"] == outputs["b"]
    print("\nACCEPTANCE 10 PASS: lambda and simulate outputs byte-identical "
          "across consecutive runs")
