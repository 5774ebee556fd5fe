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

from .device import PHI0_BAR, CellParams
from .errors import AboveCutoff, AmplitudeOutOfRange, PumpAboveCutoff


class Mode(enum.Enum):
    Sigma = "sigma"
    Delta = "delta"


def _shunt_cap(mode: Mode, cell: CellParams) -> float:
    return cell.c_g if mode is Mode.Sigma else cell.c_delta


# Validity bounds of the single-harmonic truncation: the renormalization
# factor (2 J1(x)/x for SPM, J0(x) for XPM) must stay above 0.5.  The
# roots are written out so that importing the package imports no root
# finder; tests/test_dispersion.py re-solves them (Brent, xtol 1e-13).
X_MAX_SPM = 2.215089367724233     # 2 J1(x)/x = 0.5, x in [1, 3]
X_MAX_XPM = 1.5211440576687651    # J0(x) = 0.5, x in [0.5, 2.4]


# J0 and J1 on |x| <= 5 by Cephes's rational approximations (Moshier 1989;
# j0.c, j1.c): Horner's rule in Cephes's order gives scipy.special's bits.
_J0 = (-4.794432209782018e9, 1.9561749194655657e12, -2.4924834436096772e14,
       9.708622510473064e15, 4.99563147152651e2, 1.737854016763747e5,
       4.844096583399621e7, 1.1185553704535683e10, 2.112775201154892e12,
       3.1051822985742256e14, 3.1812195594320496e16, 1.7108629408104315e18)
_J1 = (-8.999712257055594e8, 4.5222829799819403e11, -7.274942452218183e13,
       3.682957328638529e15, 6.208364781180543e2, 2.5698725675774884e5,
       8.351467914319493e7, 2.215115954797925e10, 4.749141220799914e12,
       7.843696078762359e14, 8.952223361846274e16, 5.322786203326801e18)


def _rational(x, c):
    if abs(x) > 5.0 if isinstance(x, float) else np.any(np.abs(x) > 5.0):
        raise AmplitudeOutOfRange("|x| beyond 5, the range of J0 and J1")
    z = x * x
    num, den = ((c[0] * z + c[1]) * z + c[2]) * z + c[3], z + c[4]
    for a in c[5:]:
        den = den * z + a
    return z, num, den


def _j0(x):
    z, num, den = _rational(x, _J0)
    j = (z - 5.783185962946784) * (z - 30.471262343662087) * num / den
    if isinstance(x, float):
        return 1.0 - z / 4.0 if abs(x) < 1e-5 else j
    return np.where(abs(x) < 1e-5, 1.0 - z / 4.0, j)


def _j1(x):
    z, num, den = _rational(x, _J1)
    return num / den * x * (z - 14.681970642123893) * (z - 49.2184563216946)


def _junction_x(epsilon: float, ka: float, bound: float, name: str) -> float:
    if epsilon < 0:
        raise AmplitudeOutOfRange("epsilon_p must be >= 0")
    x = 4.0 * epsilon * math.sin(0.5 * ka)
    if abs(x) > bound:
        raise AmplitudeOutOfRange(
            f"|x| = {abs(x):#.5g} beyond {name} validity bound {bound:.4f}")
    return x


def spm_inductance(l_j: float, epsilon: float, ka: float) -> float:
    """Junction inductance seen by a strong wave of reduced amplitude
    epsilon and wavevector ka (self-phase modulation)."""
    x = _junction_x(epsilon, ka, X_MAX_SPM, "SPM")
    return l_j * x / (2.0 * _j1(x)) if x else l_j


def spm_factor(x) -> np.ndarray:
    """L_J / L_spm = 2 J1(x)/x at drop amplitudes x, clipped at X_MAX_SPM."""
    x = np.minimum(x, X_MAX_SPM)
    return np.divide(2.0 * _j1(x), x, out=np.ones_like(x), where=x != 0)


def xpm_inductance(l_j: float, epsilon: float, ka: float) -> float:
    """Junction inductance seen by a weak wave in the presence of a strong
    wave of reduced amplitude epsilon and wavevector ka (cross-phase
    modulation; twice the SPM shift at leading order)."""
    x = _junction_x(epsilon, ka, X_MAX_XPM, "XPM")
    return l_j / _j0(x)


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
        if arg < -1.0 or arg > 1.0 or w2 == math.inf:
            raise AboveCutoff(mode.name, omega, cutoff(mode, cell, l_eff))
        return float(np.arccos(arg))
    # above cutoff: den = 0 (inf) and omega^2 = inf (overflow or inf / inf)
    try:
        with np.errstate(over="raise", divide="ignore", invalid="raise"):
            w2 = np.square(np.asarray(omega, dtype=float))
            arg = 1.0 + c * l_eff * w2 / (-2.0 + 2.0 * cell.c_j * l_eff * w2)
    except FloatingPointError:
        arg = np.inf
    if np.fmin.reduce(arg, axis=None, initial=1.0) < -1.0 or \
            np.fmax.reduce(arg, axis=None, initial=-1.0) > 1.0:
        om = np.ravel(omega).astype(float)  # the scalar path raises at the
        for w in om[np.argsort(-np.abs(om))]:   # largest |omega| that fails
            wavevector(mode, float(w), cell, l_eff)
    k = np.arccos(arg)
    return float(k) if np.isscalar(omega) else k


def amplitude_from_flux(phi_jj: float, k_p: float) -> float:
    """Reduced amplitude eps of a pump whose peak junction flux is phi_jj
    (Wb), by Phi_JJ = 4 phi0 eps sin(k a / 2); a pump whose junctions see
    no flux drop (sin(k a / 2) = 0), or whose eps overflows, raises
    AmplitudeOutOfRange."""
    s = math.sin(0.5 * k_p)
    eps = phi_jj / (4.0 * PHI0_BAR * s) if s else math.inf
    if not math.isfinite(eps):
        raise AmplitudeOutOfRange(f"no finite pump amplitude gives a junction "
                                  f"flux {phi_jj:.3g} Wb at k_p = {k_p:.3g} "
                                  "rad/cell")
    return eps


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
        for _ in range(200):
            l_spm = spm_inductance(cell.l_j, epsilon_p, k)
            k_new = wavevector(Mode.Delta, omega_p, cell, l_spm)
            if abs(k_new - k) < 1e-13:
                return k_new
            k = k_new
    except AboveCutoff as e:
        raise PumpAboveCutoff(str(e))
    raise PumpAboveCutoff(
        f"pump wavevector fixed point did not converge at omega_p={omega_p:.4g}")
