"""Phase matching of the three-wave mixing processes.

Three processes couple a weak Sigma-mode wave to a strong, slow Delta-mode
pump:

* Circulation (Ci): a forward signal at omega_S absorbs two backward pump
  photons and converts to a backward idler at omega_I = omega_S + 2 omega_P.
  Momentum balance: k_S(omega_S) + k_S(omega_I) = 2 k_D(omega_P).
* Tunable coupling (Co): absorption of one pump photon from each of two
  counterpropagating pumps reflects the signal at its own frequency.
  Momentum balance: k_S(omega_S) = k_D(omega_P).
* Aliased circulation (Al): same photon bookkeeping as Ci but with both
  weak waves' momenta adding up; the discrete lattice supplies one
  reciprocal-lattice quantum 2 pi / a (umklapp), so
  k_S(omega_S) + k_S(omega_I) + 2 k_D(omega_P) = 2 pi / a.

All wavevectors above are magnitudes of the renormalized lumped dispersion:
the pump wavevector is the SPM self-consistent one, and the weak Sigma
waves see the pump through XPM, whose junction inductance solve_corrected
computes once per call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .device import CellParams
from .dispersion import (Mode, cutoff, pump_wavevector, wavevector,
                         xpm_inductance)
from .errors import NoSolutionInBand, NonConvergence, TwpcError


SCAN_STEP = 2e7 * math.pi     # rad/s between residual samples (10 MHz)
RESIDUAL_TOL = 1e-10          # rad/cell: largest momentum residual of a root
BRENT_MAXITER = 100


def _brent(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of f in the bracket [a, b] by Brent's method (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973): a line-for-line
    port of scipy's C brentq, so it returns the same floats, kept in the
    package because importing scipy.optimize costs ~0.2 s of start-up.
    Raises NonConvergence after BRENT_MAXITER iterations."""
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise NonConvergence(BRENT_MAXITER, abs(fcur), "brent root search")


class ProcessKind(enum.Enum):
    Circulation = "Ci"
    CirculationAliased = "Al"
    TunableCoupling = "Co"


class Direction(enum.Enum):
    forward = "fw"
    backward = "bw"


@dataclass(frozen=True)
class MatchPoint:
    """One solution of the energy/momentum conservation system.

    Frequencies in rad/s, wavevectors signed in rad/cell (positive =
    forward).  kappa, the residual momentum mismatch, vanishes to solver
    tolerance at points the solvers return.
    """

    kind: ProcessKind
    omega_s: float
    omega_i: float
    omega_p: float
    k_s: float
    k_i: float
    k_p: float
    kappa: float = 0.0


def _residual_fn(kind: ProcessKind, omega_p: float, k_p: float,
                 cell: CellParams, l_eff: float):
    """Momentum residual as a function of signal frequency (rad/cell), with
    the Sigma waves at junction inductance l_eff."""
    if kind is ProcessKind.TunableCoupling:
        def res(w):
            return wavevector(Mode.Sigma, w, cell, l_eff) - k_p
    elif kind is ProcessKind.Circulation:
        def res(w):
            return (wavevector(Mode.Sigma, w, cell, l_eff)
                    + wavevector(Mode.Sigma, w + 2.0 * omega_p, cell, l_eff)
                    - 2.0 * k_p)
    else:  # CirculationAliased: lattice supplies 2 pi / a
        def res(w):
            return (wavevector(Mode.Sigma, w, cell, l_eff)
                    + wavevector(Mode.Sigma, w + 2.0 * omega_p, cell, l_eff)
                    + 2.0 * k_p - 2.0 * math.pi)
    return res


def solve_corrected(kind: ProcessKind, omega_p: float, epsilon_p: float,
                    cell: CellParams) -> list[MatchPoint]:
    """All matched signal frequencies of the full transcendental system.

    Evaluates the momentum residual over the open signal band on a coarse
    grid (SCAN_STEP, 10 MHz) in one array call, then refines each sign
    change with _brent, keeping roots whose residual is within
    RESIDUAL_TOL.  Roots are sorted ascending in omega_s; raises
    NoSolutionInBand when none.
    """
    k_p = pump_wavevector(cell, omega_p, epsilon_p)
    l_eff = xpm_inductance(cell.l_j, epsilon_p, k_p) \
        if epsilon_p > 0 else cell.l_j
    co_sigma = cutoff(Mode.Sigma, cell, l_eff)

    hi = co_sigma * (1.0 - 1e-9)
    if kind in (ProcessKind.Circulation, ProcessKind.CirculationAliased):
        hi -= 2.0 * omega_p
    lo = min(SCAN_STEP, 0.5 * hi)
    if hi <= lo:
        raise NoSolutionInBand(
            f"{kind.value}: empty signal band at f_P = {omega_p/2e9/math.pi:.3f} GHz")

    res = _residual_fn(kind, omega_p, k_p, cell, l_eff)
    grid = np.arange(lo, hi, SCAN_STEP)
    if grid[-1] < hi:
        grid = np.append(grid, hi)
    vals = res(grid)

    # each strict sign change is one bracket; a sample where the residual
    # is exactly zero is a root by itself, so no bracket reports it twice
    sign = np.sign(vals)
    change = np.append(sign[:-1] * sign[1:] < 0, False)
    points = []
    for i in np.flatnonzero(change | (vals == 0.0)):
        if vals[i] == 0.0:
            w_root = grid[i]
        else:
            w_root = _brent(res, grid[i], grid[i + 1], xtol=1e-3, rtol=1e-15)
        r = res(w_root)
        if abs(r) > RESIDUAL_TOL:
            continue
        omega_s = float(w_root)
        if kind is ProcessKind.TunableCoupling:
            omega_i = omega_s
        else:
            omega_i = omega_s + 2.0 * omega_p
        k_s = wavevector(Mode.Sigma, omega_s, cell, l_eff)
        k_i = -wavevector(Mode.Sigma, omega_i, cell, l_eff)
        points.append(MatchPoint(kind, omega_s, omega_i, omega_p,
                                 k_s, k_i, k_p, kappa=float(r)))
    if not points:
        raise NoSolutionInBand(
            f"{kind.value}: no phase-matched point at "
            f"f_P = {omega_p/2e9/math.pi:.3f} GHz, eps_P = {epsilon_p:.4f}")
    return points


def gap_map(kinds, pump_grid, cell: CellParams, epsilon_p):
    """Probe-frequency loci of the transmission gaps.

    Returns (curves, failures).  curves is {(kind, direction): array of
    (omega_p, omega_probe) rows}.  Forward curves are at the signal
    frequency; backward curves at the idler frequency (the same process
    probed from the other port), which coincide for the reciprocal coupling
    process.  Each (kind, omega_p) is solved once, at epsilon_p or, if
    callable, epsilon_p(omega_p).  Points with no root (NoSolutionInBand)
    are absent; a point raising another TwpcError is absent too and listed
    in failures as (kind, omega_p, error).
    """
    amplitude = epsilon_p if callable(epsilon_p) else lambda wp: epsilon_p
    curves, failures = {}, []
    for kind in kinds:
        fw, bw = [], []
        for omega_p in pump_grid:
            try:
                pts = solve_corrected(kind, omega_p, amplitude(omega_p), cell)
            except NoSolutionInBand:
                continue
            except TwpcError as exc:
                failures.append((kind, omega_p, exc))
                continue
            fw += [(omega_p, pt.omega_s) for pt in pts]
            bw += [(omega_p, pt.omega_i) for pt in pts]
        for direction, rows in zip(Direction, (fw, bw)):
            curves[(kind, direction)] = np.array(sorted(rows)).reshape(-1, 2)
    return curves, failures
