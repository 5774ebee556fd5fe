"""Frequency-domain Newton solve of the pumped chain's periodic steady state.

Unknowns are the reduced node-flux phasors phi_m (phi/phi0, convention
x(t) = X e^{i m w t} + c.c.) at odd pump harmonics m in {1, 3, ..., 2M-1};
even harmonics cannot be generated by the quartic junction nonlinearity on
a symmetric line.  Each junction carries the full current phi0 sin(delta)/L,
whose harmonic content is evaluated by real FFT of the sampled orbit —
numerically identical to the Jacobi-Anger expansion but exact for
multi-harmonic flux drops.  The Newton Jacobian is the conversion matrix
built from the FFT of cos(delta(t)) on the node-band blocks the sideband
solver also uses; the Newton step is solved in real arithmetic, on
(Re, Im) of each harmonic, by one banded LU.  Amplitude continuation
applies the drive; its first step is the full drive.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .device import PHI0_BAR
from .errors import NonConvergence, TruncationWarning
from .network import (ChainNetwork, _solve, admittance_matrix,
                      band_to_sparse, channel_band, conversion_blocks,
                      port_impedances)

K_SAMPLES = 128  # FFT oversampling of the orbit outside the Newton loop
TOL = 1e-10      # Newton converges below this residual norm / drive norm
MAX_ITER = 50    # Newton iterations per continuation step


@dataclass(frozen=True)
class HarmonicBasis:
    """Retained pump harmonics: odd orders {1, 3, ..., 2M-1} by default.

    Even orders cannot be excited on a symmetric line, so excluding them
    is exact there; ``include_even`` retains {1, 2, ..., M} instead,
    useful to verify that even harmonics indeed stay at the numerical
    floor, or for deliberately asymmetric networks.
    """

    m: int = 3
    include_even: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one harmonic")

    @property
    def orders(self) -> tuple:
        if self.include_even:
            return tuple(range(1, self.m + 1))
        return tuple(range(1, 2 * self.m, 2))


@dataclass(frozen=True)
class Drive:
    """Incident pump wave: port index, angular frequency and real
    power-wave amplitude (sqrt(W))."""

    port: int
    omega_p: float
    amplitude: float


def incident_amplitude(net: ChainNetwork, omega: float, port: int,
                       epsilon: float) -> float:
    """Power-wave amplitude (sqrt W) launching a traveling wave of reduced
    flux amplitude epsilon on a matched line.

    epsilon is in the per-electrode (mode half-difference/half-sum)
    convention; the orthonormal port variable is sqrt(2) larger.
    """
    z = port_impedances(net, omega)[port]
    return math.sqrt(2.0) * omega * PHI0_BAR * epsilon / math.sqrt(z)


@dataclass(frozen=True)
class PumpSolution:
    net: ChainNetwork
    basis: HarmonicBasis
    omega_p: float
    phi: np.ndarray        # (M, n_nodes) reduced node-flux phasors
    d: np.ndarray          # (M, n_branches) junction flux drops
    drives: tuple
    residual: float
    iterations: int
    residual_history: tuple

    def junction_gamma(self) -> np.ndarray:
        """(n_branches, K) FFT coefficients of cos(delta(t)) along the
        converged pump orbit — the conversion matrix entries used to
        linearize the chain around the pump."""
        delta = _orbit(self.d, self.basis.orders)
        return np.fft.fft(np.cos(delta), axis=1) / K_SAMPLES

    def peak_junction_flux(self) -> float:
        """max_t max_j |delta_j(t)| * phi0, in Wb."""
        if not len(self.d):
            return 0.0
        delta = _orbit(self.d, self.basis.orders)
        return float(np.max(np.abs(delta))) * PHI0_BAR


def _sample_count(h_max: int) -> int:
    """Orbit samples of the Newton loop: the smallest power of two
    >= max(32, 4 h_max), so that every offset m +- m' <= 2 h_max of the
    Jacobian is its own real-FFT bin."""
    return 1 << (max(32, 4 * h_max) - 1).bit_length()


def _orbit(d: np.ndarray, orders, k: int = K_SAMPLES) -> np.ndarray:
    """Real orbit delta(t_l) at k samples from phasors d (M, n_br)."""
    x = np.zeros((d.shape[1], k // 2 + 1), complex)
    x[:, list(orders)] = d.T
    return k * np.fft.irfft(x, k, axis=1)


def _real_form(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Real matrix (..., 2a, 2b) of x -> P x + Q conj(x) on (Re x, Im x),
    from s = P + Q and d = P - Q (..., a, b): [[Re s, -Im d], [Im s, Re d]]."""
    out = np.stack([np.stack([s.real, -d.imag], -2),
                    np.stack([s.imag, d.real], -2)], -4)
    return out.reshape(s.shape[:-2] + (2 * s.shape[-2], 2 * s.shape[-1]))


def _jacobian_blocks(net: ChainNetwork, omega_p: float, orders, z,
                     delta: np.ndarray) -> np.ndarray:
    """Node-band blocks of the real Newton Jacobian on channels
    (Re dx_m, then Im dx_m) per node: the real form of
    dx -> P dx + Q conj(dx), where P couples harmonic m' to m through
    gamma[m - m'] plus the loads at m omega_p with impedances z, and Q
    through gamma[m + m'], gamma being the real-FFT coefficients of
    cos(delta) at the sampled orbit delta (gamma[-q] = conj(gamma[q]))."""
    gamma = np.fft.rfft(np.cos(delta), axis=1) / delta.shape[1]
    m = np.array(orders)
    diff = np.subtract.outer(m, m)
    p = np.where(diff < 0, gamma[:, -diff].conj(), gamma[:, diff])
    q = gamma[:, np.add.outer(m, m)]
    blocks = conversion_blocks(net, _real_form(p + q, p - q))
    for h, mh in enumerate(orders):
        load = (1j * mh * omega_p * PHI0_BAR) * admittance_matrix(
            net, mh * omega_p, z, inductive=False)[..., None, None]
        blocks[:, :, h::len(m), h::len(m)] += _real_form(load, load)
    return blocks


def _newton_step(net: ChainNetwork, omega_p: float, orders, z,
                 delta: np.ndarray, res: np.ndarray, work=None) -> np.ndarray:
    """Newton step dx (M, n_nodes) at the sampled orbit delta, the solution
    of P dx + Q conj(dx) = res, by one real banded LU.  The band is built
    in work when given: a loop that frees no band between its steps keeps
    the heap from shrinking and faulting in the LU's memory anew."""
    ab = channel_band(_jacobian_blocks(net, omega_p, orders, z, delta), work)
    rhs = np.concatenate([res.real, res.imag]).T.ravel()
    dx = _solve(ab, rhs).reshape(net.n_nodes, 2, len(orders))
    return (dx[:, 0] + 1j * dx[:, 1]).T


def pump_harmonic_balance(net: ChainNetwork, drives, basis: HarmonicBasis,
                          flux_ceiling: float = 0.3) -> PumpSolution:
    """Newton harmonic balance of the pump steady state.

    drives: iterable of Drive, all at the same omega_p; simultaneous
    drives from both Delta ports realize the coupler configuration.  The
    drive is applied by adaptive amplitude continuation whose first step is
    the full drive from rest: on failure the step is halved, and each step
    is warm-started by rescaling the last converged state, until the step
    falls below 2 % of the drive and NonConvergence is raised.
    flux_ceiling bounds the converged peak junction flux in units of the
    flux quantum (warning above).
    """
    drives = tuple(drives)
    if not drives:
        raise ValueError("need at least one drive")
    omega_p = drives[0].omega_p
    if any(abs(d.omega_p - omega_p) > 1e-6 for d in drives):
        raise ValueError("all drives must share one pump frequency")

    orders = basis.orders
    k = _sample_count(max(orders))
    n = net.n_nodes
    ops = net.ops
    left, g, e = ops.left, ops.g, ops.e
    z = port_impedances(net, omega_p)

    full_src = np.zeros(n, complex)
    for d in drives:
        full_src += e[:, d.port] * 2.0 / math.sqrt(z[d.port]) * d.amplitude

    # linear complex operator per harmonic acting on reduced flux; the
    # loads keep their pump-frequency reference impedances at every
    # harmonic, as in the Newton step
    lin = [band_to_sparse(
        admittance_matrix(net, m * omega_p, z, inductive=False)
        * (1j * m * omega_p * PHI0_BAR)) for m in orders]

    def residual(phi, i_src):
        d_br = phi[:, left + 2] - phi[:, left]
        delta = _orbit(d_br, orders, k)
        s = np.fft.rfft(np.sin(delta), axis=1) / k
        i_nl = PHI0_BAR * g * s[:, orders].T        # junction currents
        res = np.array([a @ p for a, p in zip(lin, phi)])
        res[:, left + 2] += i_nl
        res[:, left] -= i_nl
        res[0] -= i_src
        rnorm = math.sqrt(sum(np.linalg.norm(r) ** 2 for r in res))
        return res, d_br, delta, rnorm / np.linalg.norm(i_src)

    # the Newton band (kl = ku = 6 M - 1), refilled at every step
    work = np.empty((12 * len(orders) - 1, 2 * len(orders) * n))

    def newton(phi, i_src):
        """(phi, or None unless converged, d_br, rnorm, it, history)."""
        history = []
        res, d_br, delta, rnorm = residual(phi, i_src)
        for it in range(MAX_ITER + 1):
            history.append(rnorm)
            if rnorm < TOL or it == MAX_ITER:
                break
            step = _newton_step(net, omega_p, orders, z, delta, res, work)
            # backtracking line search on the residual norm
            lam = 1.0
            for _ in range(12):
                trial = phi - lam * step
                res_t, d_t, delta_t, rn_t = residual(trial, i_src)
                if rn_t < rnorm:
                    break
                lam *= 0.5
            else:
                return None, d_br, rnorm, it + 1, history
            phi, res, d_br, delta, rnorm = trial, res_t, d_t, delta_t, rn_t
        return phi if rnorm < TOL else None, d_br, rnorm, it, history

    frac, step = 0.0, 1.0
    phi_ok = np.zeros((len(orders), n), complex)
    while frac < 1.0:
        trial_frac = min(1.0, frac + step)
        out = newton(phi_ok * (trial_frac / frac if frac else 1.0),
                     full_src * trial_frac)
        if out[0] is None:
            step *= 0.5
            if step < 0.02:
                raise NonConvergence(out[3], out[2])
            continue
        frac, phi_ok = trial_frac, out[0]
    phi, d_br, rnorm, it, history = out

    sol = PumpSolution(net, basis, omega_p, phi, d_br, drives, rnorm, it,
                       tuple(history))
    f_p = f"f_P = {omega_p/2e9/math.pi:.4f} GHz"
    peak = sol.peak_junction_flux() / (2.0 * math.pi * PHI0_BAR)
    if peak > flux_ceiling:
        warnings.warn(
            f"peak junction flux {peak:.3f} flux quanta exceeds the "
            f"{flux_ceiling:.2f} ceiling at {f_p}; harmonic truncation "
            "may be unreliable", TruncationWarning)
    top = np.max(np.abs(d_br[-1])) if len(orders) > 1 else 0.0
    fund = np.max(np.abs(d_br[0])) if d_br.size else 0.0
    if fund > 0 and len(orders) > 1 and top > 0.1 * fund:
        warnings.warn(
            "highest retained pump harmonic carries >10% of the "
            f"fundamental flux at {f_p}; increase the basis order",
            TruncationWarning)
    return sol


def pump_harmonics_at_ports(pump: PumpSolution) -> np.ndarray:
    """Outgoing power |b|^2 (W) at each (port, harmonic).

    Shape (4, M); the incident drive is subtracted at the driven port so
    entries are outgoing waves only.  Every harmonic is referenced to the
    pump-frequency impedances that terminate it in the solve.
    """
    z = port_impedances(pump.net, pump.omega_p)
    omegas = pump.omega_p * np.array(pump.basis.orders)
    v_ports = pump.net.ops.e.T @ (1j * PHI0_BAR * omegas[:, None] * pump.phi).T
    b = v_ports / np.sqrt(z)[:, None]
    for d in pump.drives:       # the fundamental comes first
        b[d.port, 0] -= d.amplitude
    return np.abs(b) ** 2
