import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgmspin import specfun
from wgmspin.specfun import (
    AccuracyWarning,
    angular_momentum_matrices,
    riccati_bessel,
    riccati_psi,
    riccati_xi,
    spherical_bessel_j,
    spherical_bessel_y,
    spherical_hankel1,
)

from oracles import sph_h1_oracle, sph_j_oracle

RNG_SEED = 20260811


# --- closed forms ------------------------------------------------------------

def test_j0_closed_form():
    assert spherical_bessel_j(0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-14)


def test_jl_zero_argument():
    assert spherical_bessel_j(2, 0.0) == 0.0
    assert spherical_bessel_j(0, 0.0) == 1.0


def test_h0_closed_form():
    # h_0^(1)(x) = -i e^{ix} / x
    got = spherical_hankel1(0, 1.0)
    want = complex(math.sin(1.0), -math.cos(1.0))
    assert got == pytest.approx(want, rel=1e-14)


def test_h1_at_imaginary_argument():
    # h_1^(1)(z) = -e^{iz}(z + i)/z^2; at z = i this is 2i/e
    got = spherical_hankel1(1, 1j)
    want = 2j / math.e
    assert got == pytest.approx(want, rel=1e-14)


# --- frozen oracle values (ascending series, >= 50 digits) -------------------

def test_j_wgm_regime_frozen():
    assert spherical_bessel_j(120, 128.5) == pytest.approx(
        0.0063038236286901676, rel=1e-10)


def test_h1_wgm_regime_frozen():
    got = spherical_hankel1(120, 84.5 + 0.001j)
    want = complex(-32162.883514110101, -31634961.085152574)
    assert abs(got - want) / abs(want) < 1e-10


def test_j_evanescent_frozen():
    assert spherical_bessel_j(120, 84.5) == pytest.approx(
        2.1776129555027576e-12, rel=1e-10)


def test_y_frozen():
    assert spherical_bessel_y(120, 84.5) == pytest.approx(
        -31634977.813819837, rel=1e-10)


# --- live oracle sample -------------------------------------------------------

def test_j_against_series_oracle_any_phase():
    # j (Miller + dual normalization) holds its contract at any argument phase
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(30):
        l = int(rng.integers(0, 201))
        x = float(rng.uniform(0.3, 300.0))
        phase = float(rng.uniform(-0.3, 0.3))
        z = x * cmath.exp(1j * phase)
        jref = complex(sph_j_oracle(l, z))
        if abs(jref) < 1e-270 or abs(jref) > 1e270:
            continue
        jgot = spherical_bessel_j(l, z)
        assert abs(jgot - jref) / abs(jref) < 1e-10, (l, z)


def test_h_against_series_oracle_strip():
    # h's tight envelope is the strip |Im z| <= 1 around the real axis,
    # where all quasinormal-pole evaluations live
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(30):
        l = int(rng.integers(0, 201))
        x = float(rng.uniform(0.3, 300.0))
        z = complex(x, float(rng.uniform(-1.0, 1.0)))
        href = complex(sph_h1_oracle(l, z))
        if abs(href) > 1e270:
            continue
        hgot = spherical_hankel1(l, z)
        assert abs(hgot - href) / abs(href) < 1e-10, (l, z)


def test_real_arguments_against_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(300):
        l = int(rng.integers(0, 201))
        x = float(rng.uniform(0.3, 300.0))
        ref = scipy_special.spherical_jn(l, x)
        if abs(ref) < 1e-250:
            continue
        got = spherical_bessel_j(l, x + 0j).real
        assert abs(got - ref) <= 1e-10 * abs(ref) + 1e-25, (l, x)


# --- Riccati-Bessel -----------------------------------------------------------

def test_riccati_psi0_at_pi():
    psi, _, _, _ = riccati_bessel(0, math.pi)
    assert abs(psi) < 1e-12


def test_riccati_wronskian_random():
    # psi xi' - psi' xi = i everywhere
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(50):
        l = int(rng.integers(0, 180))
        x = float(rng.uniform(0.5, 250.0))
        z = complex(x, float(rng.uniform(-0.5, 0.5)))
        psi, psip, xi, xip = riccati_bessel(l, z)
        w = psi * xip - psip * xi
        assert abs(w - 1j) < 1e-10, (l, z)


def test_riccati_consistent_with_bessel_functions():
    z = 84.5 + 0.0j
    l = 120
    psi, psip, xi, xip = riccati_bessel(l, z)
    j = spherical_bessel_j(l, z)
    h = spherical_hankel1(l, z)
    assert abs(psi - z * j) / abs(psi) < 1e-12
    assert abs(xi - z * h) / abs(xi) < 1e-12


def test_recurrence_consistency():
    # j_{l-1} + j_{l+1} = (2l+1)/x j_l
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(40):
        l = int(rng.integers(1, 200))
        x = complex(float(rng.uniform(1.0, 290.0)), float(rng.uniform(-0.2, 0.2)))
        jm = spherical_bessel_j(l - 1, x)
        j0 = spherical_bessel_j(l, x)
        jp = spherical_bessel_j(l + 1, x)
        lhs = jm + jp
        rhs = (2 * l + 1) / x * j0
        scale = max(abs(jm), abs(jp), abs(rhs))
        if scale == 0:
            continue
        assert abs(lhs - rhs) / scale < 1e-10, (l, x)


@settings(max_examples=40, deadline=None)
@given(l=st.integers(min_value=0, max_value=60),
       x=st.floats(min_value=0.5, max_value=150.0),
       y=st.floats(min_value=-0.4, max_value=0.4))
def test_wronskian_property(l, x, y):
    psi, psip, xi, xip = riccati_bessel(l, complex(x, y))
    assert abs(psi * xip - psip * xi - 1j) < 1e-10


# --- domain and accuracy contracts ---------------------------------------------

def test_order_domain_error():
    with pytest.raises(ValueError):
        spherical_bessel_j(501, 10.0)


def test_hankel_zero_argument_error():
    with pytest.raises(ValueError):
        spherical_hankel1(0, 0.0)
    with pytest.raises(ValueError):
        spherical_bessel_y(3, 0.0)


def test_relaxed_accuracy_warning():
    with pytest.warns(AccuracyWarning):
        spherical_bessel_j(250, 10.0)
    with pytest.warns(AccuracyWarning):
        spherical_bessel_j(10, 350.0)


def test_underflow_to_zero_below_double_range():
    # l >> |z|: true value < 1e-300, correctly rounded double is 0
    assert spherical_bessel_j(120, 1e-3) == 0.0


def test_y_overflow_signalled():
    with pytest.raises(OverflowError):
        spherical_bessel_y(120, 1e-3)
    with pytest.raises(OverflowError):
        spherical_hankel1(120, 1e-3)
    with pytest.raises(OverflowError):
        riccati_xi(120, 1e-3)


def test_riccati_pairs_run_only_their_own_ladder(monkeypatch):
    # psi needs only the Miller j ladder and xi only the h1 ladder
    z = np.array([80.0 + 0.1j, 130.0 - 1e-12j])
    want = riccati_bessel(120, z)

    def forbidden(*args):
        raise AssertionError("ladder not needed here")

    monkeypatch.setattr(specfun, "_h1_ladder", forbidden)
    psi, psip = riccati_psi(120, z)
    monkeypatch.undo()
    monkeypatch.setattr(specfun, "_j_ladder", forbidden)
    monkeypatch.setattr(specfun, "_y_ladder", forbidden)
    xi, xip = riccati_xi(120, z)
    monkeypatch.undo()
    for got, ref in zip((psi, psip, xi, xip), want):
        assert got.tobytes() == ref.tobytes()
    # where xi leaves double range, psi underflows to zero without raising
    assert riccati_psi(120, 1e-3) == (0, 0)


def test_vectorized_matches_scalar():
    zs = np.array([5.0 + 0j, 20.0 + 0.1j, 84.5 + 0j])
    vec = spherical_bessel_j(120, zs)
    for z, v in zip(zs, vec):
        assert v == spherical_bessel_j(120, z)


# --- angular momentum matrices -------------------------------------------------

def test_lz_l1():
    mats = angular_momentum_matrices(1)
    np.testing.assert_allclose(mats.Lz, np.diag([-1.0, 0.0, 1.0]), atol=0)


def test_l0_all_zero():
    mats = angular_momentum_matrices(0)
    for a in (mats.Lx, mats.Ly, mats.Lz):
        assert a.shape == (1, 1)
        np.testing.assert_array_equal(a, 0)


@pytest.mark.parametrize("l", [1, 2, 3, 120])
def test_algebra_invariants(l):
    mats = angular_momentum_matrices(l)
    lx, ly, lz = mats.Lx, mats.Ly, mats.Lz
    for a in (lx, ly, lz):
        assert np.max(np.abs(a - a.conj().T)) <= 1e-12
    for a, b, c in ((lx, ly, lz), (ly, lz, lx), (lz, lx, ly)):
        comm = a @ b - b @ a
        assert np.max(np.abs(comm - 1j * c)) <= 1e-12
    casimir = lx @ lx + ly @ ly + lz @ lz
    expected = l * (l + 1) * np.eye(2 * l + 1)
    assert np.max(np.abs(casimir - expected)) <= 1e-12


@pytest.mark.parametrize("l", [1, 3, 120])
def test_selection_rules(l):
    mats = angular_momentum_matrices(l)
    dim = 2 * l + 1
    idx = np.arange(dim)
    dm = idx[:, None] - idx[None, :]
    for a in (mats.Lx, mats.Ly):
        assert np.all(a[np.abs(dm) != 1] == 0)
    assert np.all(mats.Lz[dm != 0] == 0)


def test_matrices_read_only_and_cached():
    a = angular_momentum_matrices(2)
    b = angular_momentum_matrices(2)
    assert a is b
    with pytest.raises(ValueError):
        a.Lx[0, 0] = 5.0
