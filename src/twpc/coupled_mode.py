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
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .device import A_CELL
from .errors import SectionMismatch, WrongPropagationSigns
from .matching import MatchPoint, ProcessKind

N_X = 401       # envelope samples along the line, both ends included


@dataclass(frozen=True)
class ProcessConfig:
    """Envelope problem definition.

    pump_fw / pump_bw are complex reduced amplitudes of the pumps
    traveling along +x and -x.  The circulation process is driven by the
    pump counterpropagating with the signal (pump_bw for a forward
    signal); the coupling process uses both.  ``sections`` optionally
    splits the line at a defect into (start, end, pump_fw, pump_bw)
    pieces tiling [0, length].
    """

    kind: ProcessKind
    omega_p: float
    omega_s: float
    k_s: float      # signed, rad/cell (> 0, forward signal)
    k_i: float      # signed, rad/cell (< 0, backward idler)
    k_p: float      # magnitude, rad/cell
    length: float   # cells
    pump_fw: complex = 0.0
    pump_bw: complex = 0.0
    kappa: float = 0.0
    sections: tuple = None

    def __post_init__(self):
        if self.k_s * self.k_i >= 0:
            raise WrongPropagationSigns(
                f"k_s = {self.k_s:.4g} and k_i = {self.k_i:.4g} must "
                "counterpropagate")
        if self.sections is not None:
            secs = tuple(tuple(s) for s in self.sections)
            object.__setattr__(self, "sections", secs)
            x = 0.0
            for s in secs:
                if not math.isclose(s[0], x, abs_tol=1e-9):
                    raise SectionMismatch(
                        f"section starts at {s[0]}, expected {x}")
                x = s[1]
            if not math.isclose(x, self.length, abs_tol=1e-9):
                raise SectionMismatch(
                    f"sections end at {x}, expected {self.length}")

    @property
    def omega_i(self) -> float:
        if self.kind is ProcessKind.TunableCoupling:
            return self.omega_s
        return self.omega_s + 2.0 * self.omega_p


def from_match_point(match: MatchPoint, length: float, pump_fw=0.0,
                     pump_bw=0.0, kappa: float = 0.0) -> ProcessConfig:
    return ProcessConfig(match.kind, match.omega_p, match.omega_s,
                         match.k_s, match.k_i, match.k_p, length,
                         pump_fw, pump_bw, kappa)


@dataclass(frozen=True)
class EnvelopeSolution:
    x: np.ndarray
    eps_s: np.ndarray
    eps_i: np.ndarray
    alpha: float
    total_attenuation: complex
    kappa: float


def _pump_sq(config: ProcessConfig, pump_fw=None, pump_bw=None) -> complex:
    """Effective squared pump amplitude entering the coupling.

    eps_P^2 for circulation (the counterpropagating pump squared),
    2 eps_P,bw eps_P,fw* for the coupler.
    """
    fw = config.pump_fw if pump_fw is None else pump_fw
    bw = config.pump_bw if pump_bw is None else pump_bw
    if config.kind is ProcessKind.TunableCoupling:
        return 2.0 * bw * np.conj(fw)
    return bw * bw


def attenuation_constant(config: ProcessConfig) -> float:
    """alpha = (a^2/4) k_P^2 sqrt(-k_I k_S) |eps_P^2_eff|, 1/cell."""
    return (0.25 * A_CELL ** 2 * config.k_p ** 2
            * math.sqrt(-config.k_i * config.k_s) * abs(_pump_sq(config)))


def bandwidth_estimate(config: ProcessConfig, match: MatchPoint) -> float:
    """Gap bandwidth B = (a^2/2) k_P^2 |eps_P|^2 sqrt(omega_I omega_S),
    rad/s (the detuning range over which |kappa| <= 2 alpha)."""
    return (0.5 * A_CELL ** 2 * match.k_p ** 2 * abs(_pump_sq(config))
            * math.sqrt(match.omega_i * match.omega_s))


def _couplings(config: ProcessConfig, pump_fw=None, pump_bw=None):
    p2 = _pump_sq(config, pump_fw, pump_bw)
    c_i = 0.25 * A_CELL ** 2 * np.conj(p2) * config.k_p ** 2 * config.k_i
    c_s = 0.25 * A_CELL ** 2 * p2 * config.k_p ** 2 * config.k_s
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
    eps_i = (-1j * phase * eps_s0 * math.sqrt(config.k_s / -config.k_i)
             * (em - ep) / denom)
    total = 2.0 * math.exp(-alpha * L) / denom
    return EnvelopeSolution(x, eps_s, eps_i, alpha, complex(total), 0.0)


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
    return EnvelopeSolution(x, u, eps_i, alpha, total, kappa)


def _section_propagator(config, sec, kappa):
    x0, x1, fw, bw = sec
    c_i, c_s = _couplings(config, fw, bw)
    return expm(_system_matrix(c_i, c_s, kappa) * (x1 - x0))


def solve_with_defect(config: ProcessConfig, defect_smatrix,
                      eps_s0: complex = 1.0) -> tuple[complex, complex]:
    """Total signal attenuation across a two-section line with a defect.

    defect_smatrix(omega) must return the 4x4 linear scattering matrix of
    the defect region with ports (Sigma-L, Delta-L, Sigma-R, Delta-R); the
    envelopes couple through its Sigma-Sigma transmission sub-block at the
    signal and idler frequencies.  Power scattered into reflection or the
    Delta mode is treated as loss.  Returns (forward, backward) complex
    amplitude transmission ratios.
    """
    if config.sections is None or len(config.sections) != 2:
        raise SectionMismatch("defect solve needs exactly two sections")
    fwd = _defect_oneway(config, config.sections, defect_smatrix, eps_s0)
    # backward probe: mirror the coordinate; pumps swap direction, and the
    # defect transmissions are taken in the opposite direction
    (a0, a1, f1, b1), (c0, c1, f2, b2) = config.sections
    L = config.length
    mirrored = replace(
        config,
        sections=((0.0, L - c0, b2, f2), (L - c0, L, b1, f1)),
    )
    bwd = _defect_oneway(mirrored, mirrored.sections, defect_smatrix, eps_s0,
                         reverse=True)
    return fwd, bwd


def _defect_oneway(config, sections, defect_smatrix, eps_s0, reverse=False):
    kappa = config.kappa
    sec1, sec2 = sections
    xd = sec1[1]
    M1 = _section_propagator(config, sec1, kappa)
    M2 = _section_propagator(config, sec2, kappa)
    S_s = np.asarray(defect_smatrix(config.omega_s))
    S_i = np.asarray(defect_smatrix(config.omega_i))
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
