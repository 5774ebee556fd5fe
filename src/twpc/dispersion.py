"""Linear and pump-renormalized dispersion of the Sigma and Delta modes.

The lumped-element dispersion of either mode reads

    cos(k a) = 1 + C L omega^2 / (-2 + 2 C_J L omega^2)

with C the mode shunt capacitance (C_g for Sigma, C_g + 2 C_i for Delta)
and L the junction inductance.  wavevector and cutoff take L as l_eff,
the unpumped L_J by default; a strong pump renormalizes it, and the caller
picks the renormalization: self-phase modulation (SPM) for the pump's own
wavevector (the fixed point of pump_wavevector),

    L_spm = L_J * x / (2 J1(x)),    x = 4 eps sin(k a / 2),

cross-phase modulation (XPM, twice as strong at leading order) for weak
waves riding on the pumped line (computed once per matching solve),

    L_xpm = L_J / J0(x).

Above-cutoff queries raise AboveCutoff rather than returning an evanescent
complex wavevector; the discrete network solver handles evanescence through
its own linear algebra.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np
from scipy.special import j0, j1

from .device import A_CELL, PHI0_BAR, CellParams
from .errors import AboveCutoff, AmplitudeOutOfRange, PumpAboveCutoff


class Mode(enum.Enum):
    Sigma = "sigma"
    Delta = "delta"


def _shunt_cap(mode: Mode, cell: CellParams) -> float:
    return cell.c_g if mode is Mode.Sigma else cell.c_g + 2.0 * cell.c_i


# Validity bounds of the single-harmonic truncation: the renormalization
# factor (2 J1(x)/x for SPM, J0(x) for XPM) must stay above 0.5.  The
# roots are written out so that importing the package imports no root
# finder; tests/test_dispersion.py re-solves them (Brent, xtol 1e-13).
X_MAX_SPM = 2.215089367724233     # 2 J1(x)/x = 0.5, x in [1, 3]
X_MAX_XPM = 1.5211440576687651    # J0(x) = 0.5, x in [0.5, 2.4]


def _junction_x(epsilon: float, ka: float) -> float:
    if epsilon < 0:
        raise AmplitudeOutOfRange("epsilon_p must be >= 0")
    return 4.0 * epsilon * math.sin(0.5 * ka)


def spm_inductance(l_j: float, epsilon: float, ka: float) -> float:
    """Junction inductance seen by a strong wave of reduced amplitude
    epsilon and wavevector ka (self-phase modulation)."""
    x = _junction_x(epsilon, ka)
    if abs(x) > X_MAX_SPM:
        raise AmplitudeOutOfRange(
            f"|x| = {abs(x):.4f} beyond SPM validity bound {X_MAX_SPM:.4f}")
    if x == 0.0:
        return l_j
    return l_j * x / (2.0 * j1(x))


def xpm_inductance(l_j: float, epsilon: float, ka: float) -> float:
    """Junction inductance seen by a weak wave in the presence of a strong
    wave of reduced amplitude epsilon and wavevector ka (cross-phase
    modulation; twice the SPM shift at leading order)."""
    x = _junction_x(epsilon, ka)
    if abs(x) > X_MAX_XPM:
        raise AmplitudeOutOfRange(
            f"|x| = {abs(x):.4f} beyond XPM validity bound {X_MAX_XPM:.4f}")
    return l_j / j0(x)


def cutoff(mode: Mode, cell: CellParams, l_eff: float | None = None) -> float:
    """Propagation cutoff (rad/s), omega_co = 2/sqrt(L (C + 4 C_J)), at
    junction inductance L = l_eff (default cell.l_j)."""
    l_eff = cell.l_j if l_eff is None else l_eff
    return 2.0 / math.sqrt(l_eff * (_shunt_cap(mode, cell) + 4.0 * cell.c_j))


def wavevector(mode: Mode, omega, cell: CellParams,
               l_eff: float | None = None):
    """Wavevector k(omega) in rad/cell, in (0, pi/a], at junction
    inductance l_eff (default cell.l_j).

    Accepts a scalar or array omega; raises AboveCutoff if any frequency
    is at or above the cutoff at l_eff.  A float omega takes a scalar
    path with the array expression's operation order and np.arccos (not
    math.acos, which differs from it in the last bit), so both paths give
    the same floats.
    """
    l_eff = cell.l_j if l_eff is None else l_eff
    c = _shunt_cap(mode, cell)
    if isinstance(omega, float):        # also np.float64
        omega = float(omega)
        w2 = omega * omega
        den = -2.0 + 2.0 * cell.c_j * l_eff * w2
        arg = 1.0 + c * l_eff * w2 / den if den else math.inf
        if arg < -1.0 or arg > 1.0:
            raise AboveCutoff(mode.name, omega, cutoff(mode, cell, l_eff))
        return float(np.arccos(arg)) / A_CELL
    w2 = np.square(np.asarray(omega, dtype=float))
    # a zero denominator (the plasma frequency) gives inf: above cutoff
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = 1.0 + c * l_eff * w2 / (-2.0 + 2.0 * cell.c_j * l_eff * w2)
    if np.any(arg < -1.0) or np.any(arg > 1.0):
        om = np.max(omega)
        raise AboveCutoff(mode.name, float(om), cutoff(mode, cell, l_eff))
    k = np.arccos(arg) / A_CELL
    return float(k) if np.isscalar(omega) else k


def phase_velocity(mode: Mode, omega, cell: CellParams):
    """omega / k(omega) of the unpumped line, cell/s."""
    return omega / wavevector(mode, omega, cell)


def group_velocity(mode: Mode, omega: float, cell: CellParams) -> float:
    """d(omega)/dk of the unpumped line by central difference over
    +-1 MHz (cell/s)."""
    domega = 2 * math.pi * 1e6
    k1 = wavevector(mode, omega - domega, cell)
    k2 = wavevector(mode, omega + domega, cell)
    return 2.0 * domega / (k2 - k1)


def flux_from_amplitude(epsilon_p: float, k_p: float) -> float:
    """Peak junction flux Phi_JJ = 4 phi0 eps sin(k a / 2), in Wb."""
    return 4.0 * PHI0_BAR * epsilon_p * math.sin(0.5 * k_p * A_CELL)


def amplitude_from_flux(phi_jj: float, k_p: float) -> float:
    """Inverse of flux_from_amplitude; a pump whose junctions see no flux
    drop (sin(k a / 2) = 0) raises AmplitudeOutOfRange."""
    s = math.sin(0.5 * k_p * A_CELL)
    if s == 0.0:
        raise AmplitudeOutOfRange(f"no pump amplitude gives a junction flux "
                                  f"at k_p = {k_p:.3g} rad/cell")
    return phi_jj / (4.0 * PHI0_BAR * s)


def pump_wavevector(cell: CellParams, omega_p: float,
                    epsilon_p: float) -> float:
    """Self-consistent wavevector of a Delta-mode pump.

    The pump renormalizes its own inductance through SPM, which in turn
    changes its wavevector; iterate the fixed point k = k(omega_p; L_spm(k))
    up to 200 times, until a step is below 1e-13 rad/cell.  The fixed
    point is memoized per (cell, omega_p, epsilon_p).
    """
    return _pump_fixed_point(cell, omega_p, epsilon_p)


# the memo sits on a private helper so that pump_wavevector stays a plain
# function, which perfbench/tracing.py can wrap and count
@functools.lru_cache(maxsize=1024)
def _pump_fixed_point(cell: CellParams, omega_p: float,
                      epsilon_p: float) -> float:
    try:
        k = wavevector(Mode.Delta, omega_p, cell)
    except AboveCutoff as e:
        raise PumpAboveCutoff(str(e))
    for _ in range(200):
        l_spm = spm_inductance(cell.l_j, epsilon_p, k * A_CELL)
        try:
            k_new = wavevector(Mode.Delta, omega_p, cell, l_spm)
        except AboveCutoff as e:
            raise PumpAboveCutoff(str(e))
        if abs(k_new - k) < 1e-13:
            return k_new
        k = k_new
    raise PumpAboveCutoff(
        f"pump wavevector fixed point did not converge at omega_p={omega_p:.4g}")
