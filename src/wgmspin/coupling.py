"""Rotational coupling of a TE whispering-gallery multiplet to sphere spin.

The dimensionless coupling constant is

    Lambda = pi kappa_c integral_0^R (eps - 1) r^2 |u(k0, r)|^2 dr
           = kappa_c (n^2 - 1) [y psi'^2 + (y - l(l+1)/y) psi^2 - psi psi']
             / (n k0 |D(k0)|^2)

with u the continuum-normalized radial mode at the resonance center, equal to
A j_l(n k0 r) inside the sphere with A = sqrt(2/pi) k0 n / |D(k0)|, D the TE
characteristic function on the real axis and psi, psi' the Riccati-Bessel
values at y = n k0 R: Lommel's integral gives the second line in closed form.
The optical angular momentum S of the multiplet lives in the spin-l
representation; dynamics treat S as a mean-field expectation vector built
from coherent amplitudes (no Fock-space state is represented). The module
returns values and writes no files; the CLI (wgmspin.cli) writes
coupling.json and estimates.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR
from .wgm import ModeRecord, SphereParams, _check_positive, interior_norm_integral

__all__ = [
    "CouplingConstants",
    "OpticalAngularMomentum",
    "PrecessionEstimate",
    "compute_lambda",
    "optical_S_from_amplitudes",
    "zeeman_shift",
    "resolvability_threshold",
    "precession_rate_estimate",
]

@dataclass(frozen=True)
class CouplingConstants:
    """Lambda plus the moment of inertia and the mode it belongs to."""

    lambda_: float
    I: float
    mode: ModeRecord
    l: int


@dataclass(frozen=True)
class OpticalAngularMomentum:
    """Mean-field optical angular momentum of the l-multiplet, in hbar units."""

    S: np.ndarray
    photon_number: float
    l: int


@dataclass(frozen=True)
class PrecessionEstimate:
    """Mechanical precession rate in Hz: exact Lambda(Lambda-1) N l hbar / I
    form and the simplified (n^2-1) N hbar l / (rho R^5) form."""

    exact_hz: float
    simplified_hz: float


def compute_lambda(mode: ModeRecord, params: SphereParams) -> CouplingConstants:
    """Lambda = kappa_c (n^2 - 1) [y psi'^2 + (y - l(l+1)/y) psi^2 - psi psi']
    / (n k0 |D|^2), with D the real-axis TE D(k0) and psi, psi' at y = n k0 R.

    That is pi kappa_c (n^2 - 1) times the interior norm integral of the
    continuum-normalized mode. Closed form, no quadrature: an attached radial
    profile is ignored, so the result does not depend on one. D(k0) is
    formed from the pole, D(p) = 0 (wgm._matching). A TE pole from
    find_resonance carries D(k0), psi and psi' (ModeRecord.te_matching),
    formed once from Newton's last ladder call, so its Lambda runs no
    ladder; any other mode, and a low-Q pole, takes one ladder call at k0.
    A TM mode raises ValueError.
    """
    lam = math.pi * mode.kappa_c * (params.n**2 - 1.0) * interior_norm_integral(mode, params)
    return CouplingConstants(lambda_=lam, I=params.I, mode=mode, l=mode.l)


def optical_S_from_amplitudes(alpha) -> OpticalAngularMomentum:
    """S_i = alpha^dagger L_i alpha for coherent amplitudes alpha_m, m = -l..l.

    The amplitude vector length fixes l (2l+1 entries); photon number is
    sum |alpha_m|^2. Evaluated by the O(l) ladder sums S_z = sum m |alpha_m|^2
    and S_+ = S_x + i S_y = sum sqrt(l(l+1) - m(m+1)) alpha*_{m+1} alpha_m.
    """
    alpha = np.asarray(alpha, dtype=complex).ravel()
    if alpha.size % 2 != 1 or alpha.size < 1:
        raise ValueError(f"amplitude vector must have odd length 2l+1, got {alpha.size}")
    l = (alpha.size - 1) // 2
    m = np.arange(-l, l + 1, dtype=float)
    raise_amp = np.sqrt(l * (l + 1) - m[:-1] * (m[:-1] + 1))
    s_plus = np.sum(raise_amp * np.conj(alpha[1:]) * alpha[:-1])
    s = np.array([s_plus.real, s_plus.imag, np.sum(m * np.abs(alpha) ** 2)])
    return OpticalAngularMomentum(S=s, photon_number=float(np.vdot(alpha, alpha).real), l=l)


def zeeman_shift(m: int, lambda_: float, omega_z: float) -> float:
    """Zeeman-type shift m * Lambda * omega_z [rad/s] of the m sublevel under
    mechanical rotation at omega_z about z."""
    return m * lambda_ * omega_z


def resolvability_threshold(lambda_: float, m: int, Q: float, k0: float) -> float:
    """Smallest spin rate omega_z [rad/s] whose Zeeman shift matches the cavity
    linewidth: |m| Lambda omega_z = c k0 / Q. Lambda must be finite and
    nonzero, Q and k0 positive and finite."""
    if m == 0:
        raise ValueError("m = 0 carries no shift and can never be resolved")
    if not (math.isfinite(lambda_) and lambda_ != 0):
        # Lambda = 0 shifts no sublevel, so no spin rate resolves one
        raise ValueError(f"lambda_ must be finite and nonzero, got {lambda_!r}")
    _check_positive("Q", Q)
    _check_positive("k0", k0)
    return C_LIGHT * k0 / (Q * abs(m) * lambda_)


def precession_rate_estimate(params: SphereParams, N: float, l: int,
                             lambda_: float) -> PrecessionEstimate:
    """Order-of-magnitude mechanical precession rate for N photons at m = l.

    exact:      Lambda (Lambda - 1) <S> / I with <S> = N l hbar
    simplified: (n^2 - 1) N hbar l / (rho R^5)
    both divided by 2 pi to report Hz. N must be non-negative and finite,
    Lambda finite.
    """
    if not 0 <= N < math.inf:
        raise ValueError(f"photon number N must be non-negative and finite, got {N!r}")
    if not math.isfinite(lambda_):
        raise ValueError(f"lambda_ must be finite, got {lambda_!r}")
    exact = lambda_ * (lambda_ - 1.0) * N * l * HBAR / params.I
    simplified = (params.n**2 - 1.0) * N * HBAR * l / (params.rho * params.R**5)
    return PrecessionEstimate(exact_hz=exact / (2.0 * math.pi),
                              simplified_hz=simplified / (2.0 * math.pi))
