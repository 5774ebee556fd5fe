"""Analytical sideband model: coupled signal/idler envelope equations.

A forward signal envelope eps_S(x) on the Sigma mode couples to a
counterpropagating idler envelope eps_I(x) through the pump:

    eps_S' = i (a^2/4) eps_P*^2 k_P^2 k_I eps_I e^{-i kappa x}
    eps_I' = i (a^2/4) eps_P^2  k_P^2 k_S eps_S e^{+i kappa x}

with signed wavevectors (k_S > 0 > k_I) and kappa the residual momentum
mismatch.  At kappa = 0 the matched solution decays with attenuation
constant

    alpha = (a^2/4) k_P^2 sqrt(-k_I k_S) |eps_P|^2,

and boundary conditions eps_S(0) = eps_S0, eps_I(L) = 0 give the closed
forms

    eps_S(x) = eps_S0 (e^{-a x} + e^{-a(2L-x)}) / (1 + e^{-2 a L})
    total attenuation  eps_S(L)/eps_S0 = 2 e^{-a L} / (1 + e^{-2 a L}).

For the tunable-coupling process (one photon absorbed from each of two
counterpropagating pumps) the substitution eps_P^2 -> 2 eps_P,bw eps_P,fw*
applies, doubling alpha at equal amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .device import A_CELL
from .errors import WrongPropagationSigns
from .matching import MatchPoint, ProcessKind

N_X = 401       # envelope samples along the line, both ends included


@dataclass(frozen=True)
class ProcessConfig:
    """Envelope problem definition: one phase-matched point on a line of
    length cells.

    pump_fw / pump_bw are complex reduced amplitudes of the pumps
    traveling along +x and -x.  The circulation process is driven by the
    pump counterpropagating with the signal (pump_bw for a forward
    signal); the coupling process uses both.
    """

    match: MatchPoint
    length: float   # cells
    pump_fw: complex = 0.0
    pump_bw: complex = 0.0

    def __post_init__(self):
        k_s, k_i = self.match.k_s, self.match.k_i
        if k_s * k_i >= 0:
            raise WrongPropagationSigns(
                f"k_s = {k_s:.4g} and k_i = {k_i:.4g} must counterpropagate")


@dataclass(frozen=True)
class EnvelopeSolution:
    x: np.ndarray
    eps_s: np.ndarray
    eps_i: np.ndarray
    alpha: float
    total_attenuation: complex


def _pump_sq(config: ProcessConfig, pump_fw=None, pump_bw=None) -> complex:
    """Effective squared pump amplitude entering the coupling.

    eps_P^2 for circulation (the counterpropagating pump squared),
    2 eps_P,bw eps_P,fw* for the coupler.
    """
    fw = config.pump_fw if pump_fw is None else pump_fw
    bw = config.pump_bw if pump_bw is None else pump_bw
    if config.match.kind is ProcessKind.TunableCoupling:
        return 2.0 * bw * np.conj(fw)
    return bw * bw


def attenuation_constant(config: ProcessConfig) -> float:
    """alpha = (a^2/4) k_P^2 sqrt(-k_I k_S) |eps_P^2_eff|, 1/cell."""
    m = config.match
    return (0.25 * A_CELL ** 2 * m.k_p ** 2
            * math.sqrt(-m.k_i * m.k_s) * abs(_pump_sq(config)))


def bandwidth_estimate(config: ProcessConfig) -> float:
    """Gap bandwidth B = (a^2/2) k_P^2 |eps_P|^2 sqrt(omega_I omega_S),
    rad/s (the detuning range over which |kappa| <= 2 alpha)."""
    m = config.match
    return (0.5 * A_CELL ** 2 * m.k_p ** 2 * abs(_pump_sq(config))
            * math.sqrt(m.omega_i * m.omega_s))


def _couplings(config: ProcessConfig, pump_fw=None, pump_bw=None):
    m = config.match
    p2 = _pump_sq(config, pump_fw, pump_bw)
    c_i = 0.25 * A_CELL ** 2 * np.conj(p2) * m.k_p ** 2 * m.k_i
    c_s = 0.25 * A_CELL ** 2 * p2 * m.k_p ** 2 * m.k_s
    return c_i, c_s


def _system_matrix(c_i, c_s, kappa):
    # in variables (u, v) = (eps_s, eps_i e^{-i kappa x}) the system is
    # constant-coefficient:  u' = i c_i v,  v' = i c_s u - i kappa v
    return np.array([[0.0, 1j * c_i], [1j * c_s, -1j * kappa]])


def solve_uniform(config: ProcessConfig, eps_s0: complex) -> EnvelopeSolution:
    """Matched closed-form envelopes on a uniform single-section line,
    sampled at N_X points."""
    alpha = attenuation_constant(config)
    L = config.length
    x = np.linspace(0.0, L, N_X)
    denom = 1.0 + math.exp(-2.0 * alpha * L)
    em, ep = np.exp(-alpha * x), np.exp(-alpha * (2.0 * L - x))
    eps_s = eps_s0 * (em + ep) / denom
    p2 = _pump_sq(config)
    phase = (p2 / abs(p2)) if p2 != 0 else 1.0
    eps_i = (-1j * phase * eps_s0
             * math.sqrt(config.match.k_s / -config.match.k_i)
             * (em - ep) / denom)
    total = 2.0 * math.exp(-alpha * L) / denom
    return EnvelopeSolution(x, eps_s, eps_i, alpha, complex(total))


def solve_detuned(config: ProcessConfig, kappa: float,
                  eps_s0: complex) -> EnvelopeSolution:
    """Two-point solve of the detuned linear system.

    Exact matrix-exponential propagation of the constant-coefficient form;
    evanescent for |kappa| < 2 alpha, oscillatory beyond (gap edge at
    |kappa| = 2 alpha).  Attenuation is even in kappa.
    """
    c_i, c_s = _couplings(config)
    alpha = attenuation_constant(config)
    A = _system_matrix(c_i, c_s, kappa)
    L = config.length
    M = expm(A * L)
    # boundary conditions u(0) = eps_s0, v(L) = 0
    v0 = -M[1, 0] / M[1, 1] * eps_s0
    x = np.linspace(0.0, L, N_X)
    y0 = np.array([eps_s0, v0])
    lam, P = np.linalg.eig(A)
    c0 = np.linalg.solve(P, y0)
    prof = P @ (c0[:, None] * np.exp(lam[:, None] * x[None, :]))
    u, v = prof[0], prof[1]
    eps_i = v * np.exp(1j * kappa * x)
    total = u[-1] / eps_s0 if eps_s0 != 0 else u[-1]
    return EnvelopeSolution(x, u, eps_i, alpha, total)


def solve_with_defect(config: ProcessConfig, x_defect: float, defect_smatrix,
                      eps_s0: complex = 1.0) -> tuple[complex, complex]:
    """Total signal attenuation across a line with a defect at x_defect
    (cells from the left end), which splits it into two sections.

    defect_smatrix(omega) must return the 4x4 linear scattering matrix of
    the defect region with ports (Sigma-L, Delta-L, Sigma-R, Delta-R).  The
    pump is config.pump_bw, launched from Delta-R: the defect transmits
    |S[1, 3]| of it into the left section and reflects |S[3, 3]| into the
    right one as a forward pump.  The envelopes couple through the
    Sigma-Sigma transmission sub-block at the signal and idler
    frequencies; power scattered into reflection or the Delta mode is
    treated as loss.  Returns (forward, backward) complex amplitude
    transmission ratios.  Raises ValueError for a nonzero pump_fw or a
    defect outside [0, length].
    """
    L = config.length
    if config.pump_fw != 0:
        raise ValueError("the defect model takes one pump, pump_bw, "
                         "launched from Delta-R; pump_fw must be 0")
    if not 0.0 <= x_defect <= L:
        raise ValueError(f"defect at x = {x_defect} lies outside [0, {L}]")
    s_p = np.asarray(defect_smatrix(config.match.omega_p))
    eps, t_p, r_p = config.pump_bw, abs(s_p[1, 3]), abs(s_p[3, 3])
    # sections as (width, pump_fw, pump_bw)
    fwd = _defect_oneway(config, ((x_defect, 0.0, t_p * eps),
                                  (L - x_defect, r_p * eps, eps)),
                         defect_smatrix, eps_s0)
    # backward probe: mirror the coordinate; pumps swap direction, and the
    # defect transmissions are taken in the opposite direction
    x_mirror = L - x_defect
    bwd = _defect_oneway(config, ((x_mirror, eps, r_p * eps),
                                  (L - x_mirror, t_p * eps, 0.0)),
                         defect_smatrix, eps_s0, reverse=True)
    return fwd, bwd


def _defect_oneway(config, sections, defect_smatrix, eps_s0, reverse=False):
    # phase-matched (kappa = 0) envelope propagator across each section
    M1, M2 = (expm(_system_matrix(*_couplings(config, fw, bw), 0.0) * width)
              for width, fw, bw in sections)
    S_s = np.asarray(defect_smatrix(config.match.omega_s))
    S_i = np.asarray(defect_smatrix(config.match.omega_i))
    if reverse:
        t_s, t_i = S_s[0, 2], S_i[2, 0]
    else:
        t_s, t_i = S_s[2, 0], S_i[0, 2]
    # unknowns z = [v1(0), u1(xd), v1(xd), u2(xd), v2(xd)]
    A = np.zeros((5, 5), complex)
    b = np.zeros(5, complex)
    # section-1 propagation from (eps_s0, v1(0))
    A[0, 1] = 1.0; A[0, 0] = -M1[0, 1]; b[0] = M1[0, 0] * eps_s0
    A[1, 2] = 1.0; A[1, 0] = -M1[1, 1]; b[1] = M1[1, 0] * eps_s0
    # junction conditions: signal transmits L->R, idler transmits R->L
    A[2, 3] = 1.0; A[2, 1] = -t_s
    A[3, 2] = 1.0; A[3, 4] = -t_i
    # idler boundary condition at the far end
    A[4, 3] = M2[1, 0]; A[4, 4] = M2[1, 1]
    z = np.linalg.solve(A, b)
    u_L = M2[0, 0] * z[3] + M2[0, 1] * z[4]
    return u_L / eps_s0
