import math
from dataclasses import replace

import numpy as np
import pytest

from wgmspin.constants import C_LIGHT, HBAR
from wgmspin.coupling import (
    compute_lambda,
    optical_S_from_amplitudes,
    precession_rate_estimate,
    resolvability_threshold,
    zeeman_shift,
)
from wgmspin.specfun import angular_momentum_matrices
from wgmspin.wgm import (
    ModeRecord,
    SphereParams,
    attach_profile,
    find_resonance,
    interior_norm_integral,
    radial_profile,
)

from oracles import lly_wavenumber, mp_te_lambda

K_REF = 2.0 * math.pi / 743.25e-9


@pytest.fixture(scope="module")
def ref_params():
    return SphereParams(R=10e-6, n=math.sqrt(2.31))


@pytest.fixture(scope="module")
def ref_coupling(ref_params):
    window = (2.0 * math.pi / 751e-9, 2.0 * math.pi / 736e-9)
    mode = find_resonance("TE", 120, window, ref_params)[0]
    return compute_lambda(attach_profile(mode, ref_params), ref_params)


@pytest.fixture(scope="module")
def l20_setup():
    p = SphereParams(R=10e-6, n=1.52)
    modes = find_resonance("TE", 20, (0.25 * K_REF, 0.32 * K_REF), p,
                           scan_points=3000)
    return p, modes[0]


# --- Lambda -------------------------------------------------------------------

def test_lambda_reference_benchmark(ref_coupling):
    assert abs(ref_coupling.lambda_ - 1.12) <= 0.05
    # frozen regression of the computed value
    assert ref_coupling.lambda_ == pytest.approx(1.1238737, rel=1e-5)
    assert ref_coupling.l == 120
    assert ref_coupling.I == pytest.approx(3.3510321638291136e-22, rel=1e-12)


def test_lambda_zero_without_index_contrast():
    p = SphereParams(R=10e-6, n=1.0)
    k0 = 0.9 * K_REF
    mode = ModeRecord(polarization="TE", l=15, k0=k0, kappa_c=1e-3 * k0, Q=1e3)
    cc = compute_lambda(attach_profile(mode, p), p)
    assert cc.lambda_ == 0.0


def test_lambda_matches_trapezoid_oracle(l20_setup):
    # brute-force oracle: plain trapezoid of the tabulated profile on a dense
    # explicit interior grid
    p, mode = l20_setup
    cc = compute_lambda(mode, p)
    r = np.linspace(0.0, p.R, 8001)
    u = radial_profile(mode, p, r)
    from scipy.integrate import trapezoid
    lam_oracle = math.pi * mode.kappa_c * (p.n**2 - 1.0) * trapezoid(r * r * u * u, r)
    assert cc.lambda_ == pytest.approx(lam_oracle, rel=1e-7)


@pytest.fixture(scope="module")
def l8_mode():
    p = SphereParams(R=10e-6, n=1.52)
    modes = find_resonance("TE", 8, (6.5 / p.R, 9.5 / p.R), p, scan_points=3000)
    return p, modes[0]


# +-1 % windows about the Lam-Leung-Young position of the TE l = 147 and
# l = 200 survey poles (R = 10 um, n^2 = 2.31), the highest-Q cases
SURVEY_WINDOWS = {147: (10165443.4111994, 10370805.904354943),
                  200: (13686627.823431732, 13963125.355218234)}


@pytest.mark.parametrize("case", ["l8", "reference", 147, 200])
def test_lambda_matches_converged_simpson_oracle(case, l8_mode, ref_params, ref_coupling):
    # closed form against Simpson of pi kappa_c (n^2 - 1) r^2 u^2 with u
    # tabulated on a 32 001-point interior grid (converged to ~1e-14)
    from scipy.integrate import simpson

    if case == "l8":
        p, mode = l8_mode
    elif case == "reference":
        p, mode = ref_params, ref_coupling.mode
    else:
        p = ref_params
        modes = find_resonance("TE", case, SURVEY_WINDOWS[case], p, scan_points=2000)
        mode = max(modes, key=lambda m: m.Q)
    grid = np.linspace(0.0, p.R, 32001)
    u = radial_profile(mode, p, grid)
    lam_oracle = math.pi * mode.kappa_c * (p.n**2 - 1.0) * simpson(grid * grid * u * u, x=grid)
    assert compute_lambda(mode, p).lambda_ == pytest.approx(lam_oracle, rel=1e-12)


# TE poles at R = 10 um in +-10 % windows about the Lam-Leung-Young position,
# as (n^2, l, Q to pick the pole by). Four read a wrong Lambda while the snap
# of Im D(k0) ignored the rounding of k0: 1e-23 and 7e-70 at n^2 = 2.31,
# l = 200 and 400, 0.4857 at n^2 = 1.44, l = 500, and 0.0013 at l = 400,
# Q = 4e16; the other n^2 = 1.44, l = 400 poles span Q ~ 1e7-1e11, where the
# snap starts to act
MPMATH_LAMBDA_POLES = [(2.31, 200, 6.6e26), (2.31, 400, 1.8e50), (1.44, 500, 1.9e15),
                       (1.44, 400, 9.4e6), (1.44, 400, 5.4e8), (1.44, 400, 7.2e10),
                       (1.44, 400, 4.1e16)]


@pytest.mark.filterwarnings("ignore::wgmspin.specfun.AccuracyWarning")
@pytest.mark.parametrize("case", ["reference", *MPMATH_LAMBDA_POLES],
                         ids=lambda c: c if isinstance(c, str) else "n2={}-l={}-Q={:.1e}".format(*c))
def test_lambda_matches_mpmath_oracle(case, ref_params, ref_coupling):
    # Lambda against mpmath at 50 + log10 Q digits, from the package's pole:
    # measured agreement is within 1.2e-13 on every case (0.3-0.8 s each)
    if case == "reference":
        p, mode = ref_params, ref_coupling.mode
    else:
        n2, l, q = case
        p = SphereParams(R=10e-6, n=math.sqrt(n2))
        k = lly_wavenumber(l, "TE", p.n, p.R)
        mode, = (m for m in find_resonance("TE", l, (0.9 * k, 1.1 * k), p)
                 if abs(math.log10(m.Q / q)) < 0.1)
    oracle = mp_te_lambda(mode.l, p.n, p.R, mode.pole)
    assert compute_lambda(mode, p).lambda_ == pytest.approx(oracle, rel=1e-12)


def test_lambda_ignores_attached_profile(l20_setup):
    # Lambda is closed-form: a bare mode, the default profile and a far too
    # coarse profile all give the same bits
    p, mode = l20_setup
    coarse = replace(mode, radial_profile=radial_profile(mode, p, np.linspace(0.0, p.R, 7)))
    lams = [compute_lambda(m, p).lambda_ for m in (mode, attach_profile(mode, p), coarse)]
    assert lams[0] == lams[1] == lams[2]
    assert lams[0] > 0


def test_lambda_tm_rejected(l20_setup):
    p, mode = l20_setup
    tm_mode = ModeRecord(polarization="TM", l=20, k0=mode.k0,
                         kappa_c=mode.kappa_c, Q=mode.Q)
    with pytest.raises(ValueError, match="TE"):
        compute_lambda(tm_mode, p)


@pytest.mark.parametrize("call", [
    lambda m, p: radial_profile(m, p, np.linspace(0.0, 2.0 * p.R, 101)),
    attach_profile,
    interior_norm_integral,
], ids=["radial_profile", "attach_profile", "interior_norm_integral"])
def test_profile_tm_rejected(call, ref_params):
    # the continuum matching is TE's; a TM mode must not be profiled with TE
    # weights (on the TM l = 120 pole that put the profile 18 orders of
    # magnitude off resonance)
    tm_mode = find_resonance("TM", 120, (2.0 * math.pi / 745e-9, 2.0 * math.pi / 730e-9),
                             ref_params)[0]
    with pytest.raises(ValueError, match="TE"):
        call(tm_mode, ref_params)


# --- optical angular momentum ---------------------------------------------------

def test_highest_weight_occupation():
    l, n_photons = 7, 250.0
    alpha = np.zeros(2 * l + 1, dtype=complex)
    alpha[-1] = math.sqrt(n_photons)  # m = +l
    s = optical_S_from_amplitudes(alpha)
    np.testing.assert_allclose(s.S, [0.0, 0.0, n_photons * l], atol=1e-9)
    assert s.photon_number == pytest.approx(n_photons)
    assert s.l == l


def test_balanced_superposition_has_zero_sz():
    n_photons = 64.0
    alpha = np.array([1.0, 0.0, 1.0], dtype=complex) * math.sqrt(n_photons / 2.0)
    s = optical_S_from_amplitudes(alpha)
    assert s.S[2] == pytest.approx(0.0, abs=1e-12)


def test_random_amplitudes_against_dense_oracle():
    # independent dense construction of the spin-3 matrices
    l = 3
    rng = np.random.default_rng(11)
    alpha = rng.standard_normal(2 * l + 1) + 1j * rng.standard_normal(2 * l + 1)
    m = np.arange(-l, l + 1)
    lp = np.zeros((7, 7), dtype=complex)
    for mm in range(-l, l):
        lp[mm + 1 + l, mm + l] = math.sqrt(l * (l + 1) - mm * (mm + 1))
    ora = {
        "x": 0.5 * (lp + lp.conj().T),
        "y": -0.5j * (lp - lp.conj().T),
        "z": np.diag(m).astype(complex),
    }
    want = [np.vdot(alpha, ora[k] @ alpha).real for k in ("x", "y", "z")]
    got = optical_S_from_amplitudes(alpha)
    np.testing.assert_allclose(got.S, want, atol=1e-12 * np.abs(want).max())
    assert np.linalg.norm(got.S) <= got.photon_number * math.sqrt(l * (l + 1)) + 1e-9


@pytest.mark.parametrize("l", [120, 400])
def test_ladder_sums_match_dense_matrices(l):
    # the O(l) ladder sums against alpha^dagger L_i alpha with the cached
    # extended-precision matrices
    rng = np.random.default_rng(l)
    alpha = rng.standard_normal(2 * l + 1) + 1j * rng.standard_normal(2 * l + 1)
    mats = angular_momentum_matrices(l)
    a = alpha.astype(np.clongdouble)
    want = np.array([np.vdot(a, mats.Lx @ a).real, np.vdot(a, mats.Ly @ a).real,
                     np.vdot(a, mats.Lz @ a).real], dtype=float)
    got = optical_S_from_amplitudes(alpha).S
    assert np.max(np.abs(got - want)) <= 1e-12 * np.linalg.norm(want)


def test_amplitude_length_must_be_odd():
    with pytest.raises(ValueError):
        optical_S_from_amplitudes(np.ones(4, dtype=complex))


@pytest.mark.parametrize("l", [1, 2])
def test_wigner_rotation_property(l):
    # rotating alpha about z by phi rotates (Sx, Sy) by phi and fixes Sz
    from scipy.linalg import expm

    rng = np.random.default_rng(5 + l)
    alpha = rng.standard_normal(2 * l + 1) + 1j * rng.standard_normal(2 * l + 1)
    mats = angular_momentum_matrices(l)
    lz = np.asarray(mats.Lz, dtype=complex)
    s0 = optical_S_from_amplitudes(alpha).S
    for phi in (0.3, 1.2, 2.9):
        rot = expm(-1j * phi * lz)
        s1 = optical_S_from_amplitudes(rot @ alpha).S
        want_x = math.cos(phi) * s0[0] - math.sin(phi) * s0[1]
        want_y = math.sin(phi) * s0[0] + math.cos(phi) * s0[1]
        assert s1[0] == pytest.approx(want_x, abs=1e-10)
        assert s1[1] == pytest.approx(want_y, abs=1e-10)
        assert s1[2] == pytest.approx(s0[2], abs=1e-10)


# --- Zeeman shift and resolvability ---------------------------------------------

def test_zeeman_zero_at_m0():
    assert zeeman_shift(0, 1.12, 12345.0) == 0.0


def test_zeeman_reference_numbers():
    shift = zeeman_shift(120, 1.12, 2.0 * math.pi * 1000.0)
    assert shift == pytest.approx(8.4446e5, rel=1e-4)
    assert shift == 120 * 1.12 * 2.0 * math.pi * 1000.0


def test_zeeman_antisymmetric_in_m():
    assert zeeman_shift(-1, 1.12, 7.0) == -zeeman_shift(1, 1.12, 7.0)


def test_zeeman_linear_in_each_argument():
    base = zeeman_shift(3, 1.1, 5.0)
    assert zeeman_shift(6, 1.1, 5.0) == pytest.approx(2 * base)
    assert zeeman_shift(3, 2.2, 5.0) == pytest.approx(2 * base)
    assert zeeman_shift(3, 1.1, 10.0) == pytest.approx(2 * base)


def test_threshold_reference_numbers():
    w_min = resolvability_threshold(1.12, 120, 1e10, K_REF)
    assert w_min == C_LIGHT * K_REF / (1e10 * 120 * 1.12)
    hz = w_min / (2.0 * math.pi)
    assert 290.0 < hz < 310.0          # ~3e2 Hz at m = l
    assert 1e2 < hz < 1e4              # 1 kHz ballpark within one order


def test_threshold_scalings():
    base = resolvability_threshold(1.12, 120, 1e10, K_REF)
    assert resolvability_threshold(1.12, 120, 2e10, K_REF) == pytest.approx(base / 2)
    r = resolvability_threshold(1.12, 1, 1e10, K_REF) / base
    assert r == pytest.approx(120.0, rel=1e-12)


def test_threshold_m0_error():
    with pytest.raises(ValueError):
        resolvability_threshold(1.12, 0, 1e10, K_REF)


@pytest.mark.parametrize("args, name", [
    ((0.0, 120, 1e10, K_REF), "lambda_"),
    ((math.nan, 120, 1e10, K_REF), "lambda_"),
    ((math.inf, 120, 1e10, K_REF), "lambda_"),
    ((1.12, 120, math.inf, K_REF), "Q"),
    ((1.12, 120, math.nan, K_REF), "Q"),
    ((1.12, 120, 1e10, math.inf), "k0"),
    ((1.12, 120, 1e10, -K_REF), "k0"),
])
def test_threshold_rejects_non_finite_and_zero_lambda(args, name):
    # unchecked, Lambda = 0 would divide by zero, Q = inf would give a zero
    # threshold, and nan or inf elsewhere would pass through to the result
    with pytest.raises(ValueError, match=f"^{name} must be"):
        resolvability_threshold(*args)


# --- precession estimates --------------------------------------------------------

def test_precession_reference_order_of_magnitude(ref_params):
    est = precession_rate_estimate(ref_params, 1e5, 120, 1.12)
    assert 1e-6 <= est.simplified_hz <= 1e-4
    # frozen arithmetic
    want = (ref_params.n**2 - 1.0) * 1e5 * HBAR * 120 / (2000.0 * (1e-5) ** 5)
    assert est.simplified_hz == pytest.approx(want / (2 * math.pi), rel=1e-12)
    assert est.simplified_hz == pytest.approx(1.3192e-6, rel=1e-4)


def test_precession_zero_photons(ref_params):
    est = precession_rate_estimate(ref_params, 0.0, 120, 1.12)
    assert est.exact_hz == 0.0
    assert est.simplified_hz == 0.0


@pytest.mark.parametrize("N, lam, name", [
    (math.nan, 1.12, "photon number N"), (math.inf, 1.12, "photon number N"),
    (-1.0, 1.12, "photon number N"), (1e5, math.nan, "lambda_"), (1e5, -math.inf, "lambda_"),
])
def test_precession_rejects_non_finite(ref_params, N, lam, name):
    # unchecked, nan and inf would pass through to the rates
    with pytest.raises(ValueError, match=f"^{name} must be"):
        precession_rate_estimate(ref_params, N, 120, lam)


def test_precession_exact_vs_simplified_same_order(ref_params):
    # the two closed forms differ by (n^2-1)(8 pi/15)/(Lambda(Lambda-1)) = 16.33
    # at the reference parameters; same order of magnitude, not a factor of 10
    est = precession_rate_estimate(ref_params, 1e5, 120, 1.12)
    ratio = est.simplified_hz / est.exact_hz
    assert ratio == pytest.approx(16.3313, rel=1e-4)
    assert 1.0 < ratio < 10**1.5


def test_precession_exact_frozen(ref_params):
    est = precession_rate_estimate(ref_params, 1e5, 120, 1.12)
    want = 1.12 * 0.12 * 1e5 * 120 * HBAR / ref_params.I / (2 * math.pi)
    assert est.exact_hz == pytest.approx(want, rel=1e-12)
    assert est.exact_hz == pytest.approx(8.0777e-8, rel=1e-4)


def test_single_m_occupation_general():
    l, m, n_photons = 7, 2, 36.0
    alpha = np.zeros(2 * l + 1, dtype=complex)
    alpha[m + l] = math.sqrt(n_photons)
    s = optical_S_from_amplitudes(alpha)
    np.testing.assert_allclose(s.S, [0.0, 0.0, n_photons * m], atol=1e-10)
