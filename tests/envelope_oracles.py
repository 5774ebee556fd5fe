"""Reference solves of the coupled-mode envelope system, shared by the
coupled-mode and acceptance tests.

twpc.coupled_mode solves only the phase-matched point (kappa = 0).  The
tests keep the detuned system, in (u, v) = (eps_s, eps_i e^{-i kappa x}),

    u' = i c_i v,    v' = i c_s u - i kappa v,

to check that the matched point is the centre of a gap whose edge lies at
|kappa| = 2 alpha, and a Runge-Kutta oracle of the original equations.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from twpc import coupled_mode
from twpc.coupled_mode import EnvelopeSolution, attenuation_constant


def rk_transfer(cfg, width, kappa=0.0):
    """Runge-Kutta transfer matrix of (eps_s, eps_i) across a section,
    column by column: the state at x = width from (1, 0) and (0, 1)."""
    c_i, c_s = coupled_mode._couplings(cfg)

    def rhs(x, y):
        u, v = y[0] + 1j * y[1], y[2] + 1j * y[3]
        du = 1j * c_i * v * np.exp(-1j * kappa * x)
        dv = 1j * c_s * u * np.exp(1j * kappa * x)
        return [du.real, du.imag, dv.real, dv.imag]

    cols = [solve_ivp(rhs, (0.0, width), y0, rtol=1e-11, atol=1e-14).y[:, -1]
            for y0 in ([1.0, 0, 0, 0], [0, 0, 1.0, 0])]
    return np.array([[y[0] + 1j * y[1], y[2] + 1j * y[3]] for y in cols]).T


def rk_total(cfg, kappa=0.0):
    """Runge-Kutta two-point oracle via superposition of IVP solutions:
    eps_s(L) / eps_s(0) with eps_i(L) = 0."""
    m = rk_transfer(cfg, cfg.length, kappa)
    return m[0, 0] - m[1, 0] / m[1, 1] * m[0, 1]


def expm_propagator(cfg, kappa, widths):
    """exp(A w) of the detuned system for each width w, by scipy's Pade
    expm."""
    c_i, c_s = coupled_mode._couplings(cfg)
    a = np.array([[0.0, 1j * c_i], [1j * c_s, -1j * kappa]])
    return np.array([expm(a * w) for w in widths])


def solve_detuned(cfg, kappa):
    """Two-point solve of the detuned system for eps_s(0) = 1, through
    coupled_mode._propagator at kappa = 0 and expm_propagator otherwise.

    Evanescent for |kappa| < 2 alpha, oscillatory beyond.  Propagating
    back from x = L, where v(L) = 0, makes each value one product, with no
    cancellation deep in the gap.
    """
    x = np.linspace(0.0, cfg.length, coupled_mode.N_X)
    w = x - cfg.length
    m = (coupled_mode._propagator(cfg, w) if kappa == 0
         else expm_propagator(cfg, kappa, w))
    uv = m[:, :, 0] / m[0, 0, 0]
    return EnvelopeSolution(x, uv[:, 0], uv[:, 1] * np.exp(1j * kappa * x),
                            attenuation_constant(cfg), uv[-1, 0])


def bandwidth_estimate(cfg):
    """Gap bandwidth in rad/s: the detuning range |kappa| <= 2 alpha taken
    at sqrt(v_I v_S), the mean phase velocity omega / |k| of the signal and
    idler, which is B = (a^2/2) k_P^2 |eps_P|^2 sqrt(omega_I omega_S)."""
    m = cfg.match
    return (2.0 * attenuation_constant(cfg)
            * math.sqrt(m.omega_i * m.omega_s / -(m.k_i * m.k_s)))
