"""Analytical sideband model: coupled signal/idler envelope equations.

A forward signal envelope eps_S(x) on the Sigma mode couples to a
counterpropagating idler envelope eps_I(x) through a phase-matched pump:

    eps_S' = i (a^2/4) eps_P*^2 k_P^2 k_I eps_I
    eps_I' = i (a^2/4) eps_P^2  k_P^2 k_S eps_S

with signed wavevectors (k_S > 0 > k_I).  The solution decays with
attenuation constant

    alpha = (a^2/4) k_P^2 sqrt(-k_I k_S) |eps_P|^2,

and boundary conditions eps_S(0) = eps_S0, eps_I(L) = 0 give the closed
forms

    eps_S(x) = eps_S0 (e^{-a x} + e^{-a(2L-x)}) / (1 + e^{-2 a L})
    total attenuation  eps_S(L)/eps_S0 = 2 e^{-a L} / (1 + e^{-2 a L}).

For the tunable-coupling process (one photon absorbed from each of two
counterpropagating pumps) the substitution eps_P^2 -> 2 eps_P,bw eps_P,fw*
applies, doubling alpha at equal amplitudes.

Only the matched point is modelled (gap widths come from the circuit).
Sections chain as transfer matrices of the closed-form propagator exp(A x);
a defect joins two through its S-matrices, which the caller computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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


def _pump_sq(config: ProcessConfig) -> complex:
    """Effective squared pump amplitude entering the coupling.

    eps_P^2 for circulation (the counterpropagating pump squared),
    2 eps_P,bw eps_P,fw* for the coupler.
    """
    if config.match.kind is ProcessKind.TunableCoupling:
        return 2.0 * config.pump_bw * np.conj(config.pump_fw)
    return config.pump_bw * config.pump_bw


def attenuation_constant(config: ProcessConfig) -> float:
    """alpha = (a^2/4) k_P^2 sqrt(-k_I k_S) |eps_P^2_eff|, 1/cell."""
    m = config.match
    return (0.25 * m.k_p ** 2
            * math.sqrt(-m.k_i * m.k_s) * abs(_pump_sq(config)))


def _couplings(config: ProcessConfig):
    m = config.match
    p2 = _pump_sq(config)
    c_i = 0.25 * np.conj(p2) * m.k_p ** 2 * m.k_i
    c_s = 0.25 * p2 * m.k_p ** 2 * m.k_s
    return c_i, c_s


def _propagator(config: ProcessConfig, x) -> np.ndarray:
    """exp(A x) over the widths x (a scalar or a 1-D batch) of the matched
    system u' = i c_i v, v' = i c_s u in (u, v) = (eps_s, eps_i).  A squares
    to s^2 I, s^2 = -c_i c_s, so exp(A x) = cosh(s x) I + sinh(s x)/s A
    (Putzer), with x for sinh(s x)/s at s = 0 (no pump).
    """
    c_i, c_s = _couplings(config)
    a = np.array([[0.0, 1j * c_i], [1j * c_s, 0.0]])
    s = np.sqrt(complex(-c_i * c_s))
    x = np.asarray(x, float)[..., None, None]
    sh = np.sinh(s * x) / s if s else x
    return np.cosh(s * x) * np.eye(2) + sh * a


def solve_uniform(config: ProcessConfig) -> EnvelopeSolution:
    """Matched closed-form envelopes on a uniform single-section line,
    sampled at N_X points, for eps_s(0) = 1."""
    alpha = attenuation_constant(config)
    L = config.length
    x = np.linspace(0.0, L, N_X)
    denom = 1.0 + math.exp(-2.0 * alpha * L)
    em, ep = np.exp(-alpha * x), np.exp(-alpha * (2.0 * L - x))
    eps_s = (em + ep) / denom
    p2 = _pump_sq(config)
    phase = (p2 / abs(p2)) if p2 != 0 else 1.0
    eps_i = (-1j * phase * math.sqrt(config.match.k_s / -config.match.k_i)
             * (em - ep) / denom)
    total = 2.0 * math.exp(-alpha * L) / denom
    return EnvelopeSolution(x, eps_s, eps_i, alpha, complex(total))


def solve_with_defect(config: ProcessConfig, x_defect: float,
                      s_defect) -> tuple[complex, complex]:
    """Total signal attenuation across a line with a defect at x_defect
    (cells from the left end), which splits it into two sections.

    s_defect is the (3, 4, 4) linear scattering of the defect region at
    (omega_p, omega_s, omega_i), with ports (Sigma-L, Delta-L, Sigma-R,
    Delta-R).  The pump is config.pump_bw, launched from Delta-R: the
    defect transmits |S_p[1, 3]| of it into the left section and reflects
    |S_p[3, 3]| into the right one as a forward pump.  The envelopes couple
    through the Sigma-Sigma transmission sub-block at the signal and idler
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
    S_p, S_s, S_i = s_defect
    eps, t_p, r_p = config.pump_bw, abs(S_p[1, 3]), abs(S_p[3, 3])
    # sections as (width, pump_fw, pump_bw)
    fwd = _defect_oneway(config, ((x_defect, 0.0, t_p * eps),
                                  (L - x_defect, r_p * eps, eps)), S_s, S_i)
    # backward probe: mirror the coordinate; pumps swap direction, and the
    # defect transmissions are taken in the opposite direction
    bwd = _defect_oneway(config, ((L - x_defect, eps, r_p * eps),
                                  (x_defect, t_p * eps, 0.0)), S_s, S_i, True)
    return fwd, bwd


def _defect_oneway(config, sections, S_s, S_i, reverse=False):
    """u(L)/u(0) across two phase-matched sections joined by the defect."""
    i, o = (2, 0) if reverse else (0, 2)    # the signal's in, out ports
    t_s, t_i = S_s[o, i], S_i[i, o]
    # The signal transmits L->R and the idler R->L, so the line's transfer
    # is T = m2 diag(t_s, 1/t_i) m1, with det T = t_s / t_i (det m_k = 1).
    # v(L) = 0 leaves u(L)/u(0) = det T / T_11, taken here of t_i T, which
    # stays finite where the junction blocks the idler.
    with np.errstate(over="ignore", invalid="ignore"):
        m1, m2 = (_propagator(replace(config, pump_fw=fw, pump_bw=bw), w)
                  for w, fw, bw in sections)
        t11 = (m2 @ np.diag([t_s * t_i, 1.0]) @ m1)[1, 1]
    # a product past 1.8e308 leaves |t_s / t11| < 5.6e-309, as |t_s| <= 1
    return t_s / t11 if np.isfinite(t11) else 0j
