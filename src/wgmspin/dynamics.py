"""Coupled precession of mechanical and optical angular momentum.

The single-mode coupled equations

    dS/dt = Lambda w x S,    I dw/dt = Lambda (Lambda - 1) hbar (w x S)

(S in hbar units) imply d/dt [I w - (Lambda-1) hbar S] = 0, so the flow is an
exact uniform rotation of S (and of w with it) about the conserved axis
K = I w - (Lambda-1) hbar S at angular rate Lambda |K| / I. simulate evaluates
that flow in closed form at every sample time at once (one Rodrigues rotation
by Lambda |K| t / I per sample, no stepping); step_wgm applies the same
rotation over one step. |S|, |w|, K and the rotating-frame energy are
conserved to rounding, not to integration order.

State vectors are kept in numpy longdouble (x86 extended precision). A
simulate sample is one rotation of the initial state, so its rounding does not
accumulate; extended precision matters for long step_wgm chains, where plain
float64 rounding random-walks to ~2e-13 relative over 1e6 steps, right at the
conservation contract, and for w, which is advanced by the increment of the
much larger S. The general torque equation I dw/dt = -w x Gamma + dGamma/dt
has no such closed form and uses classic RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .coupling import CouplingConstants

__all__ = [
    "SpinState",
    "Trajectory",
    "euler_rates_to_omega",
    "canonical_J",
    "step_wgm",
    "step_general",
    "rotating_frame_energy",
    "simulate",
    "trajectory_to_csv",
    "precession_frequency",
]

_LD = np.longdouble
_IDENTITY_Q = (1.0, 0.0, 0.0, 0.0)


def _ld3(v):
    arr = np.asarray(v, dtype=_LD).reshape(3).copy()
    if not np.all(np.isfinite(arr.astype(float))):
        raise ValueError(f"vector components must be finite, got {v!r}")
    return arr


@dataclass(frozen=True)
class SpinState:
    """Mechanical angular velocity w [rad/s], optical angular momentum S
    [hbar units], body-frame orientation (unit quaternion, scalar first),
    and time [s]."""

    omega: np.ndarray
    S: np.ndarray
    orientation: np.ndarray = None  # type: ignore[assignment]
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "omega", _ld3(self.omega))
        object.__setattr__(self, "S", _ld3(self.S))
        q = self.orientation
        q = np.asarray(_IDENTITY_Q if q is None else q, dtype=_LD).reshape(4).copy()
        norm = np.sqrt(np.sum(q * q))
        if not (0.9 < float(norm) < 1.1):
            raise ValueError("orientation quaternion is far from unit norm")
        object.__setattr__(self, "orientation", q / norm)


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered spin states plus conservation monitor channels."""

    samples: list
    abs_S: np.ndarray
    abs_omega: np.ndarray
    K: np.ndarray      # (n, 3), K = I w - (Lambda-1) hbar S
    H_r: np.ndarray

    @property
    def t(self):
        return np.array([s.t for s in self.samples])

    @property
    def drift(self):
        """Largest deviation of each monitor channel from its first sample,
        relative to the first sample's magnitude (norm for K; 0 when that
        magnitude is 0), keyed abs_S, abs_omega, K, H_r."""
        out = {}
        for name in ("abs_S", "abs_omega", "K", "H_r"):
            series = getattr(self, name)
            ref = float(np.linalg.norm(series[0]))
            out[name] = (float(np.max(np.abs(series - series[0]))) / ref
                         if ref else 0.0)
        return out


# --- Euler-angle kinematics (z-y-z convention, R = Rz(a) Ry(b) Rz(g)) ------

def euler_rates_to_omega(angles, rates):
    """Space-frame angular velocity from Euler angles (a, b, g) and rates.

    w = (g' sin b cos a - b' sin a, g' sin b sin a + b' cos a, a' + g' cos b).
    """
    a, b, _ = angles
    da, db, dg = rates
    return np.array([
        dg * math.sin(b) * math.cos(a) - db * math.sin(a),
        dg * math.sin(b) * math.sin(a) + db * math.cos(a),
        da + dg * math.cos(b),
    ])


def canonical_J(angles, momenta):
    """Canonical angular momentum from Euler angles and conjugate momenta.

    J_x = -cot b cos a p_a - sin a p_b + csc b cos a p_g  (and cyclic for J_y),
    J_z = p_a. Raises at the gimbal singularity sin b = 0 where the chart is
    degenerate.
    """
    a, b, _ = angles
    pa, pb, pg = momenta
    sb = math.sin(b)
    if abs(sb) < 1e-12:
        raise ValueError("sin(beta) = 0: Euler chart degenerate (gimbal lock)")
    cot_b, csc_b = math.cos(b) / sb, 1.0 / sb
    ca, sa = math.cos(a), math.sin(a)
    return np.array([
        -cot_b * ca * pa - sa * pb + csc_b * ca * pg,
        -cot_b * sa * pa + ca * pb + csc_b * sa * pg,
        pa,
    ])


# --- quaternions (scalar-first) --------------------------------------------

def _quat_mul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


def _rotation_quat(v, t):
    """Rotation by |v| t about v (t scalar or array); identity for v = 0."""
    vx, vy, vz = v
    vn = np.sqrt(vx * vx + vy * vy + vz * vz)
    if vn == 0.0:
        return _IDENTITY_Q
    half = 0.5 * vn * t
    s = np.sin(half) / vn
    return (np.cos(half), vx * s, vy * s, vz * s)


def _advance_orientation(q, w, dt):
    arr = np.array(_quat_mul(_rotation_quat(w, dt), tuple(q)), dtype=_LD)
    return arr / np.sqrt(np.sum(arr * arr))


# --- WGM coupled step (exact rotation about conserved K) --------------------

def _step_wgm_scalars(sx, sy, sz, wx, wy, wz, inertia, lam, hbar, dt):
    # dt may be an array of elapsed times: the result is then the exact flow
    # evaluated at each of them (S and w components as arrays)
    lm1h = (lam - 1.0) * hbar
    kx = inertia * wx - lm1h * sx
    ky = inertia * wy - lm1h * sy
    kz = inertia * wz - lm1h * sz
    kn = np.sqrt(kx * kx + ky * ky + kz * kz)
    if kn == 0.0:
        return sx, sy, sz, wx, wy, wz
    ux, uy, uz = kx / kn, ky / kn, kz / kn
    theta = lam * kn / inertia * dt
    c = np.cos(theta)
    s = np.sin(theta)
    half_s = np.sin(0.5 * theta)
    omc = 2.0 * half_s * half_s          # 1 - cos, cancellation-free
    dot = ux * sx + uy * sy + uz * sz
    cx = uy * sz - uz * sy
    cy = uz * sx - ux * sz
    cz = ux * sy - uy * sx
    sx2 = sx * c + cx * s + ux * dot * omc
    sy2 = sy * c + cy * s + uy * dot * omc
    sz2 = sz * c + cz * s + uz * dot * omc
    # restore |S| to the incoming norm: the fixed-angle Rodrigues form has a
    # same-sign per-step norm bias that would otherwise accumulate linearly
    sn_old = np.sqrt(sx * sx + sy * sy + sz * sz)
    if sn_old > 0.0:
        f = sn_old / np.sqrt(sx2 * sx2 + sy2 * sy2 + sz2 * sz2)
        sx2 = sx2 * f
        sy2 = sy2 * f
        sz2 = sz2 * f
    # advance omega by the increment of S: K = I w - (lam-1) hbar S is then
    # conserved identically, and the S-dominated regime (|K| >> I|w|) never
    # reconstructs small w from a cancellation of large vectors
    scale = lm1h / inertia
    wx2 = wx + scale * (sx2 - sx)
    wy2 = wy + scale * (sy2 - sy)
    wz2 = wz + scale * (sz2 - sz)
    return sx2, sy2, sz2, wx2, wy2, wz2


def step_wgm(state: SpinState, dt: float, constants: CouplingConstants, *,
             hbar: float = HBAR) -> SpinState:
    """One exact-flow step of the coupled precession equations.

    Rotates S about the conserved axis K = I w - (Lambda-1) hbar S by
    Lambda |K| dt / I (Rodrigues), advances w by the matching increment, and
    advances the orientation by the rotation generated by the incoming w.
    S and w stay exact for any dt (the rotation is the closed-form flow);
    orientation bookkeeping holds the incoming w over the step, so prefer
    dt <= 0.01 * min(2 pi / (Lambda |w|), 2 pi I / (Lambda |Lambda-1| hbar |S|))
    when the orientation itself matters. w = S = 0 is a valid fixed point.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    lam = _LD(constants.lambda_)
    inertia = _LD(constants.I)
    hb = _LD(hbar)
    dtl = _LD(dt)
    sx, sy, sz = state.S
    wx, wy, wz = state.omega
    sx, sy, sz, wx2, wy2, wz2 = _step_wgm_scalars(
        sx, sy, sz, wx, wy, wz, inertia, lam, hb, dtl)
    q = _advance_orientation(state.orientation, state.omega, dtl)
    return SpinState(omega=np.array([wx2, wy2, wz2], dtype=_LD),
                     S=np.array([sx, sy, sz], dtype=_LD),
                     orientation=q, t=state.t + dt)


# --- general torque step (RK4) ----------------------------------------------

def step_general(state: SpinState, dt: float, inertia: float, gamma_provider, *,
                 project_omega_norm: bool = False) -> SpinState:
    """Classic RK4 step of I dw/dt = -w x Gamma(t) + dGamma/dt.

    gamma_provider(t) returns (Gamma, dGamma/dt) as 3-vectors [SI]. With
    project_omega_norm=True (caller declares dGamma/dt == 0), |w| is projected
    back to its incoming value after the step: the pure -w x Gamma term only
    precesses w at frequency |Gamma|/I and cannot change its magnitude.
    Unconditional projection would be wrong, since the dGamma/dt term can.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    w0 = state.omega.astype(float)
    t0 = state.t

    def rhs(t, w):
        gamma, dgamma = gamma_provider(t)
        gamma = np.asarray(gamma, dtype=float)
        dgamma = np.asarray(dgamma, dtype=float)
        return (-np.cross(w, gamma) + dgamma) / inertia

    k1 = rhs(t0, w0)
    k2 = rhs(t0 + 0.5 * dt, w0 + 0.5 * dt * k1)
    k3 = rhs(t0 + 0.5 * dt, w0 + 0.5 * dt * k2)
    k4 = rhs(t0 + dt, w0 + dt * k3)
    w1 = w0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if project_omega_norm:
        n0 = np.linalg.norm(w0)
        n1 = np.linalg.norm(w1)
        if n1 > 0:
            w1 = w1 * (n0 / n1)
    q = _advance_orientation(state.orientation, state.omega, _LD(dt))
    return SpinState(omega=w1, S=state.S, orientation=q, t=t0 + dt)


# --- invariants --------------------------------------------------------------

def conserved_K(state: SpinState, constants: CouplingConstants, *,
                hbar: float = HBAR):
    """K = I w - (Lambda-1) hbar S, the exact precession axis [SI]."""
    return (constants.I * state.omega
            - (constants.lambda_ - 1.0) * _LD(hbar) * state.S)


def rotating_frame_energy(state: SpinState, constants: CouplingConstants, *,
                          hbar: float = HBAR) -> float:
    """H_r = [Lambda (J+S)^2 + (1-Lambda) J^2 + Lambda(Lambda-1) S^2] / 2I
    with J = I w - Lambda S (all vectors in SI units; S scaled by hbar).

    J + S = K = I w - (Lambda-1) hbar S makes the S terms cancel exactly, so
    the bracket is |I w|^2 and H_r = I |w|^2 / 2, evaluated in that form (no
    cancellation of large terms). hbar is accepted for a uniform signature.
    """
    return float(0.5 * constants.I * np.sum(state.omega * state.omega))


# --- driver ------------------------------------------------------------------

def _columns(cols, n):
    """(n, len(cols)) longdouble array from scalar or length-n columns."""
    out = np.empty((n, len(cols)), dtype=_LD)
    for j, col in enumerate(cols):
        out[:, j] = col
    return out


def simulate(initial: SpinState, constants: CouplingConstants, dt: float,
             n_steps: int, sample_every: int = 1, *, hbar: float = HBAR,
             monitor_tol: float = 1e-6) -> Trajectory:
    """Exact flow at steps 0, sample_every, 2 sample_every, ... and n_steps.

    Each sample is the closed-form flow at its elapsed time t = step * dt: S
    rotated about K by Lambda |K| t / I and w advanced by the matching
    increment of S, from the kernel of step_wgm evaluated for all sample times
    at once. w(t) is w(0) rotated about K at Omega = Lambda |K| / I, so the
    orientation is exact too: q(t) = q(K^, Omega t) q(w0 - Omega K^, t) q0.
    Monitor channels (|S|, |w|, K, H_r) are recorded per sample; relative
    drift beyond monitor_tol raises RuntimeError (it indicates misuse, e.g.
    state scales beyond the working precision). Deterministic for fixed inputs.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    lam = _LD(constants.lambda_)
    inertia = _LD(constants.I)
    hb = _LD(hbar)
    steps = np.union1d(np.arange(0, n_steps + 1, sample_every), n_steps)
    elapsed = steps * _LD(dt)

    sw = _columns(_step_wgm_scalars(*initial.S, *initial.omega, inertia, lam,
                                    hb, elapsed), steps.size)
    s, w = sw[:, :3], sw[:, 3:]
    k = inertia * w - (lam - 1.0) * hb * s
    k_norm = np.sqrt(np.sum(k[0] * k[0]))
    rate = lam * k_norm / inertia
    k_hat = k[0] / k_norm if k_norm else np.zeros(3, dtype=_LD)
    q = _columns(_quat_mul(
        _rotation_quat(k_hat, rate * elapsed),
        _quat_mul(_rotation_quat(initial.omega - rate * k_hat, elapsed),
                  tuple(initial.orientation))), steps.size)

    w2 = np.sum(w * w, axis=1)
    traj = Trajectory(
        samples=[SpinState(omega=w[i], S=s[i], orientation=q[i],
                           t=initial.t + int(n) * dt)
                 for i, n in enumerate(steps)],
        abs_S=np.sqrt(np.sum(s * s, axis=1)).astype(float),
        abs_omega=np.sqrt(w2).astype(float),
        K=k.astype(float),
        H_r=(0.5 * inertia * w2).astype(float))
    channel, drift = max(traj.drift.items(), key=lambda item: item[1])
    if drift > monitor_tol:
        raise RuntimeError(
            f"conservation monitor drift {drift:.3e} in {channel} beyond "
            f"{monitor_tol:.1e}: integrator misuse (check dt and state scales)")
    return traj


def trajectory_to_csv(traj: Trajectory, path):
    """CSV export (float64): header line comment documents units."""
    with open(path, "w") as fh:
        fh.write("# t [s]; omega [rad/s]; S [hbar units]; K [kg m^2/s]; H_r [J]\n")
        fh.write("t,omega_x,omega_y,omega_z,S_x,S_y,S_z,"
                 "abs_omega,abs_S,K_x,K_y,K_z,H_r\n")
        for i, s in enumerate(traj.samples):
            w = s.omega.astype(float)
            sv = s.S.astype(float)
            k = traj.K[i]
            fh.write(",".join(repr(float(v)) for v in (
                s.t, w[0], w[1], w[2], sv[0], sv[1], sv[2],
                traj.abs_omega[i], traj.abs_S[i], k[0], k[1], k[2],
                traj.H_r[i])) + "\n")


def precession_frequency(times, vectors, axis):
    """Signed precession rate [rad/s] of a vector series about axis.

    Unwraps the phase of the component transverse to axis and fits a line.
    Returns None when the transverse component is negligible (no measurable
    precession), e.g. for a vector parallel to the axis or identically zero.
    """
    times = np.asarray(times, dtype=float)
    vecs = np.asarray(vectors, dtype=float)
    axis = np.asarray(axis, dtype=float)
    an = np.linalg.norm(axis)
    if an == 0 or len(times) < 3:
        return None
    u = axis / an
    # orthonormal frame transverse to u
    trial = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(u, trial)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    p1 = vecs @ e1
    p2 = vecs @ e2
    perp = np.hypot(p1, p2)
    scale = np.max(np.linalg.norm(vecs, axis=1))
    if scale == 0 or np.min(perp) < 1e-9 * scale:
        return None
    phase = np.unwrap(np.arctan2(p2, p1))
    coeffs = np.polyfit(times - times[0], phase, 1)
    return float(coeffs[0])
