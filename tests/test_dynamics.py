import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgmspin import dynamics
from wgmspin.config import MAX_SAMPLES
from wgmspin.constants import HBAR
from wgmspin.coupling import CouplingConstants
from wgmspin.dynamics import (
    SpinState,
    conserved_K,
    precession_frequency,
    rotating_frame_energy,
    simulate,
    step_general,
    step_wgm,
)
from wgmspin.wgm import ModeRecord, SphereParams


def make_constants(lambda_=1.12, inertia=3.3510321638291136e-22, l=120):
    mode = ModeRecord(polarization="TE", l=l, k0=8.45e6, kappa_c=1.0, Q=8.45e6)
    return CouplingConstants(lambda_=lambda_, I=inertia, mode=mode, l=l)


def reference_state(tilt=0.4):
    s_mag = 1e5 * 120.0
    s = s_mag * np.array([math.sin(tilt), 0.0, math.cos(tilt)])
    omega = np.array([1e-9, 0.0, 2e-10])
    return SpinState(omega=omega, S=s)


# --- SpinState -------------------------------------------------------------------

def test_spin_state_does_not_alias_inputs():
    # longdouble inputs need no cast, so only an explicit copy keeps them apart
    def fields(st):
        return (st.omega, st.S, st.orientation)

    def assert_unchanged(st, want):
        for got, w in zip(fields(st), want):
            np.testing.assert_array_equal(got, w)

    omega = np.array([1e-9, 0.0, 2e-10], dtype=np.longdouble)
    s = np.array([3e5, 0.0, 1.1e6], dtype=np.longdouble)
    q = np.array([0.8, 0.0, 0.6, 0.0], dtype=np.longdouble)
    state = SpinState(omega=omega, S=s, orientation=q)
    want = [x.copy() for x in fields(state)]
    for arr in (omega, s, q):
        arr[:] = 7.0
    assert_unchanged(state, want)
    stepped = [step_wgm(state, 1.2e4, make_constants()),
               step_general(state, 1.0, 1.0, lambda t: (np.zeros(3), np.zeros(3)))]
    want_stepped = [[x.copy() for x in fields(st)] for st in stepped]
    for arr in fields(state):
        arr[:] = 7.0
    for st, w in zip(stepped, want_stepped):
        assert_unchanged(st, w)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_spin_state_rejects_non_finite_t(t):
    # every later step would carry it
    with pytest.raises(ValueError, match="t must be finite"):
        SpinState(omega=[1e-9, 0.0, 2e-10], S=[0.0, 0.0, 1.0], t=t)


@pytest.mark.parametrize("field, value", [
    ("omega", [1e-9, math.nan, 0.0]),
    ("S", [0.0, -math.inf, 1.0]),
    # finite as a longdouble, beyond float64's range
    ("S", [np.longdouble(2.0) ** 1100, 0.0, 0.0]),
    ("orientation", [0.5, 0.0, 0.0, 0.0]),
])
def test_step_state_rejects_what_spin_state_rejects(field, value):
    # SpinState and every step build their state through dynamics._step_state;
    # called as a step calls it, it rejects what SpinState rejects
    fields = {"omega": [1e-9, 0.0, 2e-10], "S": [1.0, 2.0, 3.0],
              "orientation": [0.8, 0.0, 0.6, 0.0]}
    fields[field] = np.array(value, dtype=np.longdouble)
    with pytest.raises(ValueError):
        SpinState(**fields)
    with pytest.raises(ValueError):
        dynamics._step_state(fields["omega"], fields["S"], fields["orientation"], 0.0)


# --- step_wgm ---------------------------------------------------------------------

def test_parallel_fixed_point():
    cc = make_constants()
    s = np.array([0.0, 0.0, 1e6])
    omega = np.array([0.0, 0.0, 5e-8])
    state = SpinState(omega=omega, S=s)
    out = step_wgm(state, 1e4, cc)
    np.testing.assert_allclose(out.S.astype(float), s, rtol=1e-15)
    np.testing.assert_allclose(out.omega.astype(float), omega, rtol=1e-15)


def test_lambda_zero_freezes_both():
    cc = make_constants(lambda_=0.0)
    state = reference_state()
    out = step_wgm(state, 1e4, cc)
    np.testing.assert_array_equal(out.S.astype(float), state.S.astype(float))
    np.testing.assert_allclose(out.omega.astype(float),
                               state.omega.astype(float), rtol=1e-18)


def rodrigues(v, axis, angle):
    u = axis / np.linalg.norm(axis)
    return (v * math.cos(angle) + np.cross(u, v) * math.sin(angle)
            + u * np.dot(u, v) * (1.0 - math.cos(angle)))


def test_matches_closed_form_uniform_precession():
    # oracle: S(t) = Rodrigues rotation of S(0) about constant K by
    # Lambda |K| t / I; one rotation per sample, independent of the stepper
    cc = make_constants()
    state = reference_state()
    dt = 1.2e4
    n = 10_000
    k0 = conserved_K(state, cc).astype(float)
    rate = cc.lambda_ * np.linalg.norm(k0) / cc.I
    s0 = state.S.astype(float)
    cur = state
    checks = range(1000, n + 1, 1000)
    worst = 0.0
    for i in range(1, n + 1):
        cur = step_wgm(cur, dt, cc)
        if i in checks:
            want = rodrigues(s0, k0, rate * i * dt)
            got = cur.S.astype(float)
            # sine metric: acos quantizes at sqrt(eps) ~ 2e-8 rad near zero
            ang = math.atan2(np.linalg.norm(np.cross(want, got)),
                             float(np.dot(want, got)))
            worst = max(worst, ang)
    assert worst <= 1e-8


def test_invariants_over_many_steps():
    cc = make_constants()
    state = reference_state()
    traj = simulate(state, cc, 1.2e4, 20_000, sample_every=1000)
    s0, w0 = traj.abs_S[0], traj.abs_omega[0]
    k0 = np.linalg.norm(traj.K[0])
    h0 = traj.H_r[0]
    assert np.max(np.abs(traj.abs_S - s0)) / s0 < 1e-13
    assert np.max(np.abs(traj.abs_omega - w0)) / w0 < 1e-13
    assert np.max(np.abs(traj.K - traj.K[0])) / k0 < 1e-12
    assert np.max(np.abs(traj.H_r - h0)) / abs(h0) < 1e-10


def test_orientation_tracks_constant_spin():
    cc = make_constants(lambda_=0.0)
    w = 0.125
    state = SpinState(omega=[0.0, 0.0, w], S=[0.0, 0.0, 0.0])
    dt, n = 0.25, 64
    cur = state
    for _ in range(n):
        cur = step_wgm(cur, dt, cc)
    half = 0.5 * w * dt * n
    want = np.array([math.cos(half), 0.0, 0.0, math.sin(half)])
    got = cur.orientation.astype(float)
    if got[0] * want[0] < 0:
        got = -got
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert abs(np.linalg.norm(cur.orientation.astype(float)) - 1.0) < 1e-12


def test_simulate_orientation_exact_for_constant_spin():
    # same setup as test_orientation_tracks_constant_spin, through the
    # closed-form orientation of simulate instead of the step chain
    cc = make_constants(lambda_=0.0)
    w = 0.125
    state = SpinState(omega=[0.0, 0.0, w], S=[0.0, 0.0, 0.0])
    dt, n = 0.25, 64
    got = simulate(state, cc, dt, n, sample_every=16).samples[-1].orientation
    half = 0.5 * w * dt * n
    want = np.array([math.cos(half), 0.0, 0.0, math.sin(half)])
    np.testing.assert_allclose(got.astype(float), want, rtol=0, atol=1e-16)


def _quat_distance(p, q):
    # q and -q are the same rotation
    return float(min(np.linalg.norm(p - q), np.linalg.norm(p + q)))


def _quat(axis, angle):
    # rotation by angle about the unit axis, scalar first
    return np.array([math.cos(angle / 2), *(math.sin(angle / 2) * axis)])


def _mul(p, q):
    return np.array([p[0] * q[0] - p[1:] @ q[1:],
                     *(p[0] * q[1:] + q[0] * p[1:] + np.cross(p[1:], q[1:]))])


def test_zero_K_keeps_state_and_spins_frame_at_omega():
    # Lambda = 1.5, I = hbar = 1: K = w - S/2 = 0 exactly, with S and w
    # nonzero. The flow has no precession axis: S and w must stay bit-exact
    # and the frame turns at the constant w0, q(t) = q(w0, t) q0
    cc = make_constants(lambda_=1.5, inertia=1.0, l=3)
    w0, s0, q0 = (np.array([1.0, 0.0, 1.0]), np.array([2.0, 0.0, 2.0]),
                  np.array([0.8, 0.0, 0.6, 0.0]))
    state = SpinState(omega=w0, S=s0, orientation=q0)
    assert not np.any(conserved_K(state, cc, hbar=1.0))
    axis, rate = w0 / np.linalg.norm(w0), np.linalg.norm(w0)
    dt, n = 0.1, 50
    traj = simulate(state, cc, dt, n, sample_every=5, hbar=1.0)
    for sample in traj.samples:
        np.testing.assert_array_equal(sample.S, state.S)
        np.testing.assert_array_equal(sample.omega, state.omega)
        want = _mul(_quat(axis, rate * sample.t), q0)
        assert _quat_distance(sample.orientation.astype(float), want) <= 1e-15
    cur = state
    for _ in range(n):
        cur = step_wgm(cur, dt, cc, hbar=1.0)
    np.testing.assert_array_equal(cur.S, state.S)
    np.testing.assert_array_equal(cur.omega, state.omega)
    want = _mul(_quat(axis, rate * dt * n), q0)
    assert _quat_distance(cur.orientation.astype(float), want) <= 1e-15


def test_step_wgm_orientation_matches_closed_form():
    # step_wgm is the exact flow at t = dt, orientation included, so a chain
    # of n steps lands on simulate's closed-form orientation at any n
    cc = make_constants(lambda_=1.37, inertia=0.8, l=3)
    state = SpinState(omega=[0.3, -0.2, 0.5], S=[0.4, 0.1, -0.3],
                      orientation=[0.8, 0.0, 0.6, 0.0])
    total = 4.0
    want = simulate(state, cc, total, 1, hbar=1.0).samples[-1].orientation
    for n in (100, 200, 400):
        cur = state
        for _ in range(n):
            cur = step_wgm(cur, total / n, cc, hbar=1.0)
        assert _quat_distance(cur.orientation, want) <= 1e-15, n


def test_dt_must_be_positive():
    for dt in (0.0, -1.2e4, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive"):
            step_wgm(reference_state(), dt, make_constants())


@pytest.mark.parametrize("dt", [0.0, -1.0, math.inf, math.nan])
def test_step_general_dt_must_be_positive(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        step_general(reference_state(), dt, 1.0,
                     lambda t: (np.zeros(3), np.zeros(3)))


@pytest.mark.parametrize("inertia", [0.0, -1.0, math.nan, math.inf])
def test_step_general_inertia_must_be_positive(inertia):
    with pytest.raises(ValueError, match="inertia must be positive"):
        step_general(reference_state(), 0.1, inertia,
                     lambda t: (np.array([0.0, 0.0, 1.0]), np.zeros(3)))


@pytest.mark.parametrize("dt", [0.0, -1.2e4, math.nan, math.inf])
def test_simulate_dt_must_be_positive(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        simulate(reference_state(), make_constants(), dt, 10)


def test_simulate_matches_step_wgm_chain():
    # simulate evaluates the flow at each sample time; an iterated step_wgm
    # chain must land on the same states (the last sample, step 20 000, is
    # not a multiple of the stride)
    cc = make_constants()
    state = reference_state()
    dt, n = 1.2e4, 20_000
    traj = simulate(state, cc, dt, n, sample_every=3000)
    want = {s.t: s for s in traj.samples}
    assert sorted(want) == [i * dt for i in (*range(0, n, 3000), n)]
    s_scale = np.sqrt(np.sum(state.S * state.S))
    w_scale = np.sqrt(np.sum(state.omega * state.omega))
    cur = state
    checked = 1
    for _ in range(n):
        cur = step_wgm(cur, dt, cc)
        if cur.t in want:
            ref = want[cur.t]
            assert np.max(np.abs(cur.S - ref.S)) <= 1e-15 * s_scale
            assert np.max(np.abs(cur.omega - ref.omega)) <= 1e-13 * w_scale
            assert _quat_distance(cur.orientation, ref.orientation) <= 1e-15
            checked += 1
    assert checked == len(traj.samples)


# S = 1.2e7 (sin 0.4, 0, cos 0.4), and the w that makes |K| = 1e-4 I|w| with it
# under make_constants(): w = (Lambda-1) hbar S / I + 1e-4 |that| (0, 1, 0.3)^
_S_REF = [4673020.107703806, 0.0, 11052731.92803462]
_W_BALANCED = [1.764722651982298e-07, 4.340570431718658e-11, 4.174091798732359e-07]
_Q_REF = [0.8, 0.0, 0.6, 0.0]


def _gamma_poly(t):
    return np.array([0.5 - 0.3 * t * t, 0.4 * t, 0.9 * t + 0.2]), np.zeros(3)


# The last state of each chain, recorded before the step API's call overhead
# was cut (the first three) and before the step path moved to longdouble
# components (the last two): each longdouble as its 10 significant bytes (x86
# 80-bit, hex) and t by float.hex. Steps keep every longdouble operation and
# its order, so these bytes must not move.
_PINNED = {
    "step_wgm S-dominated": (
        "d3ef752fc7f84c87e13f395f7561b335afb8de3f0068c87f1de218e3de3f",
        "58e3543f41c0988e154057b9adadb7ebfe8a0b409d834bdd3469a7a81640",
        "66ee594a091fcdccfe3f96faabbd7ee1bd81f5bff0e2cd7176869899fe3f"
        "e861c9ac26d4efd7f63f",
        "0x1.6e36000000000p+23"),
    "step_wgm balanced": (
        "dc24bb26af537cbde83f20e32d287b7ae6bedc3f96e95ae0e54718e0e93f",
        "f614d62437f89b8e154000000000d0fc3289e8bfd19cb393edbba6a81640",
        "7b41111706c33a80fe3f00d27c38bebf80c0fc3fe78373a66e9c59c0fd3f"
        "5c04f80c5e56b8c1febf",
        "0x1.203b58b86bb96p+39"),
    "step_general time-varying Gamma": (
        "d375372767c938a4fcbff458f083d41903aefe3f277d911ffcabf9d6ff3f",
        "00d0ccccccccccccfd3f00d0ccccccccccccfb3f0098999999999999fdbf",
        "9c968ddc87c764f5fc3f6302b6aa93b76c92fdbfaa488dd1c446fbcafd3f"
        "9d4b9e5445a7bcd6fe3f",
        "0x1.0000000000003p+1"),
    "simulate reference, last of 4000": (
        "96c39fa6a67ed1d1e03f2ddd4a4bb3caa9a6e03fffc10915c4dbada4df3f",
        "fb05cf8844016b8e1540f91a8473339cddfa0c40dba0635c0508b1a81640",
        "4b9af60880cbf9fffe3f20f4f6980ef52d9df73f806ea7bed7905180f3bf"
        "0068fd27946b46d3f83f",
        "0x1.6e36000000000p+25"),
    "step_wgm Lambda < 1 from t0 != 0": (
        "c16f49f34edcb78ce23f8e524197ae5efaaadfbfeb1e06578ca7ab86e13f",
        "4345b8644800958e1540facd0f1f6e2acadc0ac0187c8f3a7034a8a81640",
        "0ea57aeea0fccbccfe3fb54865e12ae25696f6bf4834f222dffd9499fe3f"
        "3a99130553a1fda2f83f",
        "0x1.7980a00000000p+23"),
}


def _x87_bytes(a):
    assert np.finfo(np.longdouble).nmant == 63, "pinned bytes need x86 80-bit longdouble"
    a = np.ascontiguousarray(a, dtype=np.longdouble)
    return a.view(np.uint8).reshape(a.size, -1)[:, :10].tobytes().hex()


@pytest.mark.parametrize("chain", sorted(_PINNED))
def test_step_chains_reproduce_pinned_bytes(chain):
    if chain == "step_general time-varying Gamma":
        cur = SpinState(omega=[0.3, -0.2, 0.5], S=[0.4, 0.1, -0.3], orientation=_Q_REF)
        for _ in range(1000):
            cur = step_general(cur, 2e-3, 1.3, _gamma_poly)
    elif chain.startswith("simulate"):
        cur = simulate(reference_state(), make_constants(), 1.2e4, 4000,
                       sample_every=1000).samples[-1]
    else:
        omega, dt, lam, t0 = {
            "step_wgm S-dominated": ([1e-9, 0.0, 2e-10], 1.2e4, 1.12, 0.0),
            "step_wgm balanced": (_W_BALANCED, 618973125.6858641, 1.12, 0.0),
            "step_wgm Lambda < 1 from t0 != 0": ([2e-9, -5e-10, 1e-9], 1.2e4,
                                                 0.83, 3.7e5),
        }[chain]
        cur = SpinState(omega=omega, S=_S_REF, orientation=_Q_REF, t=t0)
        cc = make_constants(lambda_=lam)
        for _ in range(1000):
            cur = step_wgm(cur, dt, cc)
    got = (_x87_bytes(cur.omega), _x87_bytes(cur.S), _x87_bytes(cur.orientation),
           float(cur.t).hex())
    assert got == _PINNED[chain]


def _assert_same_state(got, want):
    for name in ("omega", "S", "orientation"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.t == want.t


def _random_wgm_state(rng):
    """A seeded (state, constants, dt): Lambda in [0.5, 2], I over 25 decades,
    |K| set by S or by w, a random orientation and start time, and a step of
    1e-3 to 1 rad of precession."""
    lam = rng.uniform(0.5, 2.0)
    cc = make_constants(lambda_=lam, inertia=10.0 ** rng.uniform(-25, 0))
    s = 10.0 ** rng.uniform(3, 7) * rng.normal(size=3)
    w_scale = 10.0 ** rng.uniform(-2, 2) * abs(lam - 1.0) * HBAR * np.linalg.norm(s) / cc.I
    omega = w_scale * rng.normal(size=3)
    q = rng.normal(size=4)
    state = SpinState(omega=omega, S=s, orientation=q / np.linalg.norm(q),
                      t=rng.uniform(-1e3, 1e3))
    rate = lam * np.linalg.norm(conserved_K(state, cc).astype(float)) / cc.I
    return state, cc, 10.0 ** rng.uniform(-3, 0) / rate


def test_one_step_equals_one_simulate_sample():
    # step_wgm and simulate evaluate the one _flow, at a scalar and at an
    # array of times: one step is simulate's last sample to the bit
    rng = np.random.default_rng(29)
    for _ in range(500):
        state, cc, dt = _random_wgm_state(rng)
        _assert_same_state(step_wgm(state, dt, cc),
                           simulate(state, cc, dt, 1).samples[-1])


def test_step_general_accepts_any_provider_sequence():
    # a list, a float64 array and a longdouble array of the same values give
    # the same states to the bit
    def chain(as_type):
        cur = SpinState(omega=[0.3, -0.2, 0.5], S=[0.4, 0.1, -0.3], orientation=_Q_REF)
        for _ in range(50):
            cur = step_general(cur, 2e-3, 1.3,
                               lambda t: (as_type(_gamma_poly(t)[0]), np.zeros(3)))
        return cur

    want = chain(lambda g: g)
    for as_type in (list, lambda g: g.astype(np.longdouble)):
        _assert_same_state(chain(as_type), want)


@pytest.mark.parametrize("gamma", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
def test_step_general_rejects_gamma_not_3_components(gamma):
    state = SpinState(omega=[0.3, -0.2, 0.5], S=[0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="3 components"):
        step_general(state, 1e-2, 1.3, lambda t: (np.array(gamma), np.zeros(3)))


# (Lambda, I, hbar) and the initial w, S of each regime, and the precession
# angle covered. Balanced: the body turns ~1e4 times faster than S precesses,
# so a short arc keeps the orientation's integration affordable.
_REGIMES = {
    "S-dominated": ((1.12, 3.3510321638291136e-22, HBAR),  # |K| ~ 440 I|w|
                    [1e-9, 0.0, 2e-10], _S_REF, 4 * math.pi),
    "omega-dominated": ((1.37, 0.8, 1.0),  # |K| ~ 26 (Lambda-1) hbar |S|
                        [0.3, -0.2, 0.5], [0.04, 0.01, -0.03], 4 * math.pi),
    "balanced": ((1.12, 3.3510321638291136e-22, HBAR), _W_BALANCED, _S_REF, 0.01),
}


@pytest.mark.parametrize("regime", sorted(_REGIMES))
def test_flow_matches_integrated_equations(regime):
    # DOP853 on the paper's equations dS/dt = Lambda w x S,
    # I dw/dt = Lambda (Lambda-1) hbar w x S and dq/dt = (0, w) q / 2, against
    # simulate's 401 samples and every state of a 400-step step_wgm chain.
    # Measured: S and w within 3.4e-13 of their initial norms and the
    # quaternion within 4.5e-13 (balanced); the bound is over 200x that
    from scipy.integrate import solve_ivp

    (lam, inertia, hbar), w0, s0, angle = _REGIMES[regime]
    cc = make_constants(lambda_=lam, inertia=inertia)
    state = SpinState(omega=w0, S=s0, orientation=_Q_REF)
    k = conserved_K(state, cc, hbar=hbar).astype(float)
    n = 400
    dt = angle / (lam * np.linalg.norm(k) / inertia) / n

    def rhs(t, y):
        w, q = y[3:6], y[6:]
        c = np.cross(w, y[:3])
        dq = 0.5 * np.array([-w @ q[1:], *(q[0] * w + np.cross(w, q[1:]))])
        return np.concatenate([lam * c, lam * (lam - 1.0) * hbar / inertia * c, dq])

    ref = solve_ivp(rhs, (0.0, n * dt), np.concatenate([s0, w0, _Q_REF]),
                    method="DOP853", rtol=1e-13, atol=1e-30,
                    t_eval=np.arange(n + 1) * dt).y.T
    chain = [state]
    for _ in range(n):
        chain.append(step_wgm(chain[-1], dt, cc, hbar=hbar))
    for states in (simulate(state, cc, dt, n, hbar=hbar).samples, chain):
        assert len(states) == len(ref)
        s, w, q = (np.array([getattr(x, name).astype(float) for x in states])
                   for name in ("S", "omega", "orientation"))
        err_s = np.max(np.linalg.norm(s - ref[:, :3], axis=1)) / np.linalg.norm(s0)
        err_w = np.max(np.linalg.norm(w - ref[:, 3:6], axis=1)) / np.linalg.norm(w0)
        err_q = max(_quat_distance(a, b) for a, b in zip(q, ref[:, 6:]))
        assert max(err_s, err_w, err_q) <= 1e-10, (err_s, err_w, err_q)


def test_drifts_on_million_step_reference():
    # the criterion-4 setup, held to 1e-14 on all four channels; drift is
    # the criterion-4 definition of each channel's relative drift
    params = SphereParams(R=10e-6, n=math.sqrt(2.31))
    cc = make_constants(lambda_=1.12, inertia=params.I)
    state = SpinState(
        omega=np.array([1e-9 * math.sin(0.2), 0.0, 1e-9 * math.cos(0.2)]),
        S=1e5 * 120.0 * np.array([math.sin(0.4), 0.0, math.cos(0.4)]))
    traj = simulate(state, cc, 1.2e4, 1_000_000, sample_every=10_000)
    assert len(traj.samples) == 101
    drift = traj.drift
    assert drift == {
        "abs_S": np.max(np.abs(traj.abs_S - traj.abs_S[0])) / traj.abs_S[0],
        "abs_omega": (np.max(np.abs(traj.abs_omega - traj.abs_omega[0]))
                      / traj.abs_omega[0]),
        "K": np.max(np.abs(traj.K - traj.K[0])) / np.linalg.norm(traj.K[0]),
        "H_r": np.max(np.abs(traj.H_r - traj.H_r[0])) / abs(traj.H_r[0]),
    }
    for channel, value in drift.items():
        assert value <= 1e-14, channel


def test_drifts_in_balanced_regime():
    # |K| = 1e-4 I|w|: w nearly cancels (Lambda-1) hbar S / I, so K is a small
    # difference of large vectors; its drift must still meet criterion 4
    cc = make_constants()
    s = 1.2e7 * np.array([math.sin(0.4), 0.0, math.cos(0.4)])
    w_bal = (cc.lambda_ - 1.0) * HBAR * s / cc.I
    tilt = np.array([0.0, 1.0, 0.3]) / np.linalg.norm([0.0, 1.0, 0.3])
    state = SpinState(omega=w_bal + 1e-4 * np.linalg.norm(w_bal) * tilt, S=s)
    k = conserved_K(state, cc).astype(float)
    assert math.isclose(np.linalg.norm(k),
                        1e-4 * cc.I * np.linalg.norm(state.omega.astype(float)),
                        rel_tol=1e-3)
    rate = cc.lambda_ * np.linalg.norm(k) / cc.I
    traj = simulate(state, cc, 2.0 * math.pi / (200.0 * rate), 100_000,
                    sample_every=1000)
    drift = traj.drift
    assert drift["abs_S"] <= 1e-13
    assert drift["abs_omega"] <= 1e-13
    assert drift["K"] <= 1e-12
    assert drift["H_r"] <= 1e-10


# --- time reversal ----------------------------------------------------------------

def _reverse(state):
    return SpinState(omega=-state.omega, S=-state.S,
                     orientation=state.orientation, t=state.t)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_time_reversal_moderate_scale(seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(-1e3, 1e3, 3)
    w = rng.uniform(-1e3, 1e3, 3)
    cc = make_constants(lambda_=1.37, inertia=0.8, l=3)
    state = SpinState(omega=w, S=s)
    dt, n = 1e-3, 200
    cur = state
    for _ in range(n):
        cur = step_wgm(cur, dt, cc, hbar=1.0)
    cur = _reverse(cur)
    for _ in range(n):
        cur = step_wgm(cur, dt, cc, hbar=1.0)
    cur = _reverse(cur)
    assert np.max(np.abs(cur.S.astype(float) - s)) <= 1e-10
    assert np.max(np.abs(cur.omega.astype(float) - w)) <= 1e-10


def test_time_reversal_large_s_scale():
    # |S| = N l = 1.2e7 here, so 1e-10 absolute would mean 8e-18 relative,
    # below one extended-precision ulp per step; assert the honest relative
    # return quality instead (the 1e-10 absolute contract is the
    # moderate-scale property above)
    cc = make_constants()
    state = reference_state()
    dt, n = 1.2e4, 1000
    cur = state
    for _ in range(n):
        cur = step_wgm(cur, dt, cc)
    cur = _reverse(cur)
    for _ in range(n):
        cur = step_wgm(cur, dt, cc)
    cur = _reverse(cur)
    s_scale = float(np.max(np.abs(state.S)))
    assert float(np.max(np.abs(cur.S - state.S))) <= 1e-16 * s_scale
    # omega reconstructs from K and S, so its return error inherits the S
    # error scaled by (Lambda-1) hbar / I, a ~45x relative amplification in
    # the S-dominated regime
    feed_through = (cc.lambda_ - 1.0) * HBAR / cc.I * 1e-16 * s_scale
    w_bound = 1e-16 * float(np.max(np.abs(state.omega))) + 2.0 * feed_through
    assert float(np.max(np.abs(cur.omega - state.omega))) <= w_bound


# --- rotating-frame energy ----------------------------------------------------------

def test_energy_free_rotor():
    cc = make_constants()
    w = np.array([3.0e-8, -1.0e-8, 2.0e-8])
    state = SpinState(omega=w, S=[0.0, 0.0, 0.0])
    want = 0.5 * cc.I * float(np.dot(w, w))
    assert rotating_frame_energy(state, cc) == pytest.approx(want, rel=1e-14)


def test_energy_cancellation_at_lambda_one():
    cc = make_constants(lambda_=1.0)
    state = SpinState(omega=[0.0, 0.0, 0.0], S=[1e5, -3e4, 7e4])
    assert rotating_frame_energy(state, cc) == pytest.approx(0.0, abs=1e-40)


def _expanded_energy(state, cc, hbar):
    # the defining bracket, [Lambda (J+S)^2 + (1-Lambda) J^2
    # + Lambda(Lambda-1) S^2] / 2I with J = I w - Lambda S, term by term
    lam, inertia = cc.lambda_, cc.I
    s_si = np.longdouble(hbar) * state.S
    j = inertia * state.omega - lam * s_si
    jps = j + s_si
    return float((lam * np.sum(jps * jps) + (1.0 - lam) * np.sum(j * j)
                  + lam * (lam - 1.0) * np.sum(s_si * s_si)) / (2.0 * inertia))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_energy_equals_expanded_bracket(seed):
    rng = np.random.default_rng(seed)
    cc = make_constants(lambda_=rng.uniform(0.0, 3.0),
                        inertia=rng.uniform(0.5, 2.0), l=3)
    state = SpinState(omega=rng.uniform(-1e3, 1e3, 3),
                      S=rng.uniform(-1e3, 1e3, 3))
    want = _expanded_energy(state, cc, 1.0)
    got = rotating_frame_energy(state, cc)
    assert got == pytest.approx(want, rel=1e-12)


# --- step_general -------------------------------------------------------------------

@pytest.mark.parametrize("project", [True, False])
def test_constant_gamma_precession_frequency(project):
    # the step is an exact rotation for constant Gamma, so |w| holds to
    # rounding with or without the (ignored) projection keyword
    inertia = 2.0
    big_g = 3.0

    def provider(t):
        return np.array([0.0, 0.0, big_g]), np.zeros(3)

    w0 = np.array([1.0, 0.0, 0.8])
    state = SpinState(omega=w0, S=[0.0, 0.0, 0.0])
    dt = 0.02 * inertia / big_g
    n = 3000
    times, omegas = [state.t], [w0]
    cur = state
    for _ in range(n):
        cur = step_general(cur, dt, inertia, provider, project_omega_norm=project)
        times.append(cur.t)
        omegas.append(cur.omega.astype(float))
    rate = precession_frequency(times, omegas, np.array([0.0, 0.0, 1.0]))
    assert rate == pytest.approx(big_g / inertia, rel=1e-6)
    norms = np.linalg.norm(np.array(omegas), axis=1)
    assert np.max(np.abs(norms - norms[0])) / norms[0] < 1e-12


def test_zero_gamma_keeps_omega():
    def provider(t):
        return np.zeros(3), np.zeros(3)

    state = SpinState(omega=[0.4, -0.2, 0.9], S=[0.0, 0.0, 0.0])
    out = step_general(state, 0.1, 1.7, provider)
    np.testing.assert_array_equal(out.omega.astype(float),
                                  state.omega.astype(float))


def test_step_general_orientation_second_order():
    # constant Gamma precesses w about Gamma^ at Omega = |Gamma|/I, so the
    # orientation has the closed form q(Gamma^, Omega t) q(w0 - Omega Gamma^, t) q0.
    # The step composes the same two rotations, so 1000 steps land on it to
    # rounding (~4e-16); a second-order split step is off by ~8e-7
    inertia, gamma = 1.0, np.array([0.0, 0.0, 1.0])
    w0 = np.array([0.3, 0.0, 0.4])
    total, n = 5.0, 1000

    def provider(t):
        return gamma, np.zeros(3)

    cur = SpinState(omega=w0, S=[0.0, 0.0, 0.0])
    for _ in range(n):
        cur = step_general(cur, total / n, inertia, provider)
    rate = np.linalg.norm(gamma) / inertia
    body = w0 - rate * gamma
    want = _mul(_quat(gamma, rate * total),
                _quat(body / np.linalg.norm(body), np.linalg.norm(body) * total))
    assert _quat_distance(cur.orientation.astype(float), want) <= 1e-13


def test_step_general_fourth_order_for_time_varying_gamma():
    # against a DOP853 reference of I dw/dt = -w x Gamma + dGamma/dt and
    # dq/dt = (0, w) q / 2: w and q converge at fourth order (error ratio
    # ~16 per halving of dt; a second-order orientation gives ~4)
    from scipy.integrate import solve_ivp

    inertia, total = 1.3, 2.0
    w0, q0 = np.array([0.3, -0.2, 0.5]), np.array([0.8, 0.0, 0.6, 0.0])

    def gamma(t):
        return np.array([0.5 * math.cos(2 * t), 0.5 * math.sin(2 * t), 0.9 * t + 0.2])

    def dgamma(t):
        return np.array([-math.sin(2 * t), math.cos(2 * t), 0.9])

    def rhs(t, y):
        w, q = y[:3], y[3:]
        dq = 0.5 * np.array([-w @ q[1:], *(q[0] * w + np.cross(w, q[1:]))])
        return np.concatenate([(-np.cross(w, gamma(t)) + dgamma(t)) / inertia, dq])

    ref = solve_ivp(rhs, (0.0, total), np.concatenate([w0, q0]), method="DOP853",
                    rtol=1e-13, atol=1e-15).y[:, -1]
    errors = []
    for n in (100, 200, 400):
        cur = SpinState(omega=w0, S=[0.0, 0.0, 0.0], orientation=q0)
        for _ in range(n):
            cur = step_general(cur, total / n, inertia, lambda t: (gamma(t), dgamma(t)))
        errors.append((np.linalg.norm(cur.omega.astype(float) - ref[:3]),
                       _quat_distance(cur.orientation.astype(float), ref[3:])))
    for coarse, fine in zip(errors, errors[1:]):
        assert min(c / f for c, f in zip(coarse, fine)) >= 12, errors


def test_linear_gamma_integrates_directly():
    # Gamma = (0, 0, g t), omega(0) = 0: I omega(t) = Gamma(t) - Gamma(0)
    inertia = 0.7
    g = 2.4

    def provider(t):
        return np.array([0.0, 0.0, g * t]), np.array([0.0, 0.0, g])

    cur = SpinState(omega=[0.0, 0.0, 0.0], S=[0.0, 0.0, 0.0])
    dt, n = 0.01, 500
    for _ in range(n):
        cur = step_general(cur, dt, inertia, provider)
    want = g * (n * dt) / inertia
    assert cur.omega[2] == pytest.approx(want, rel=1e-10)
    assert abs(cur.omega[0]) + abs(cur.omega[1]) < 1e-14


def test_linear_gamma_with_offset_bounded_by_oracle():
    # Gamma = Gamma0 + A t with Gamma0 not parallel to A: the cross-term
    # correction to I omega = Gamma - Gamma0 obeys the analytic O(t^2) bound
    # |correction| <= (|A|/I)(|Gamma0| t^2/2 + |A| t^3/3)
    inertia = 1.3
    gamma0 = np.array([0.5, 0.0, 0.0])
    a_vec = np.array([0.0, 0.0, 0.9])

    def provider(t):
        return gamma0 + a_vec * t, a_vec

    cur = SpinState(omega=[0.0, 0.0, 0.0], S=[0.0, 0.0, 0.0])
    dt, n = 0.005, 200
    for _ in range(n):
        cur = step_general(cur, dt, inertia, provider)
    t = n * dt
    drift = cur.omega.astype(float) * inertia - a_vec * t
    a, g0 = np.linalg.norm(a_vec), np.linalg.norm(gamma0)
    bound = (a / inertia) * (g0 * t**2 / 2 + a * t**3 / 3)
    assert np.linalg.norm(drift) <= 1.5 * bound
    assert np.linalg.norm(drift) > 0  # the correction is real, not rounding


# --- simulate / trajectory -----------------------------------------------------------

def test_simulate_rejects_zero_steps():
    with pytest.raises(ValueError):
        simulate(reference_state(), make_constants(), 1.0, 0)


@pytest.mark.parametrize("name", ["n_steps", "sample_every"])
def test_simulate_rejects_non_integer_counts(name):
    # samples are stamped at whole steps, so a fractional count would mislabel t
    counts = {"n_steps": 100, "sample_every": 10, name: 2.5}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        simulate(reference_state(), make_constants(), 1.2e4, **counts)


def test_sampling_stride_is_consistent():
    cc = make_constants()
    state = reference_state()
    dense = simulate(state, cc, 1.2e4, 40, sample_every=1)
    sparse = simulate(state, cc, 1.2e4, 40, sample_every=10)
    dense_by_t = {s.t: s for s in dense.samples}
    for s in sparse.samples:
        ref = dense_by_t[s.t]
        np.testing.assert_array_equal(s.S, ref.S)
        np.testing.assert_array_equal(s.omega, ref.omega)


def test_large_s_precession_matches_estimate():
    from wgmspin.coupling import precession_rate_estimate

    params = SphereParams(R=10e-6, n=math.sqrt(2.31))
    cc = make_constants(lambda_=1.12, inertia=params.I)
    s_mag = 1e5 * 120.0
    tilt = 0.4
    state = SpinState(
        omega=np.array([1e-9 * math.sin(0.2), 0.0, 1e-9 * math.cos(0.2)]),
        S=s_mag * np.array([math.sin(tilt), 0.0, math.cos(tilt)]))
    traj = simulate(state, cc, 1.2e4, 4000, sample_every=10)
    omegas = np.array([s.omega.astype(float) for s in traj.samples])
    measured = precession_frequency(traj.t, omegas, traj.K[0])
    est = precession_rate_estimate(params, 1e5, 120, 1.12)
    predicted_hz = est.exact_hz
    assert measured is not None
    assert abs(measured / (2 * math.pi) - predicted_hz) / predicted_hz < 0.01


def test_precession_frequency_needs_three_samples():
    # a line through fewer than 3 phases measures nothing
    times, omegas = [0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert precession_frequency(times, omegas, [0.0, 0.0, 1.0]) is None
    assert precession_frequency(times + [2.0], omegas + [[-1.0, 0.0, 0.0]],
                                [0.0, 0.0, 1.0]) == pytest.approx(math.pi / 2)


def test_zero_field_reports_no_precession():
    cc = make_constants()
    state = SpinState(omega=[1e-8, 0.0, 2e-9], S=[0.0, 0.0, 0.0])
    traj = simulate(state, cc, 1e4, 50)
    omegas = np.array([s.omega.astype(float) for s in traj.samples])
    assert precession_frequency(traj.t, omegas, traj.K[0]) is None
    np.testing.assert_array_equal(omegas[0], omegas[-1])


def test_monitor_abort_on_nonsense(monkeypatch):
    cc = make_constants()
    state = reference_state()
    # 1000 steps: the float64 monitor channels pick up rounding-level drift
    # (|w| ~2e-16) well above the absurd tolerance; 10 steps may not
    monkeypatch.setattr(dynamics, "MONITOR_TOL", 1e-22)
    with pytest.raises(RuntimeError, match="monitor"):
        simulate(state, cc, 1e4, 1000)


def test_simulate_memory_bounded_at_sample_cap():
    # MAX_SAMPLES samples are held as arrays: t, w, S, orientation and the
    # four monitor channels take ~21 MiB, and simulate peaks at ~35 MiB
    # (x86-64, 16-byte longdouble)
    tracemalloc.start()
    try:
        traj = simulate(reference_state(), make_constants(), 1.2e4, MAX_SAMPLES - 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.t.size == MAX_SAMPLES
    assert held < 32 * 2**20
    assert peak < 48 * 2**20


def test_all_zero_state_is_fixed_point():
    cc = make_constants()
    traj = simulate(SpinState(omega=[0.0, 0.0, 0.0], S=[0.0, 0.0, 0.0]),
                    cc, 1.0, 10)
    for s in traj.samples:
        np.testing.assert_array_equal(s.S.astype(float), 0.0)
        np.testing.assert_array_equal(s.omega.astype(float), 0.0)
    np.testing.assert_array_equal(traj.H_r, 0.0)
