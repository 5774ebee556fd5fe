"""Frequency-domain Newton solve of the pumped chain's periodic steady state.

One pump (omega_p, reduced amplitude eps) is incident on one or more
ports.  Unknowns are the reduced flux phasors phi_m (phi/phi0, convention
x(t) = X e^{i m w t} + c.c.) at odd pump harmonics m in {1, 3, ..., 2M-1};
even harmonics cannot be generated by the quartic junction nonlinearity on
a symmetric line.  On identical electrodes pumped on Sigma ports only or
on Delta ports only, the orbit lies in that electrode-parity sector and
the unknowns are (sign phi_a + phi_b)/sqrt(2) per column
(network.parity_sector), else the node fluxes; norms agree in both, and
the solution is returned on the nodes.  Each junction carries the full
current phi0 sin(delta)/L, whose harmonics are a real DFT of the sampled
orbit, exact for multi-harmonic flux drops.  The Newton Jacobian, their
exact derivative, is the conversion matrix of cos(delta(t)) on the blocks
the sideband solver also uses, solved in real arithmetic on (Re, Im) of
each harmonic by one banded LU.  It starts at the full drive from the
describing-function orbit; amplitude continuation takes over on failure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .device import FLUX_Q, PHI0_BAR
from .dispersion import spm_factor
from .errors import NonConvergence, TruncationWarning
from .network import (ChainNetwork, ChainOperators, _solve, channel_band,
                      conversion_blocks, parity_sector, port_impedances)

K_SAMPLES = 128  # FFT oversampling of the orbit outside the Newton loop
TOL = 1e-10      # Newton converges below this residual norm / drive norm
MAX_ITER = 50    # Newton iterations per continuation step
FLUX_CEILING = 0.3  # peak junction flux (flux quanta) above which to warn


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
    """The orbit pump_harmonic_balance solved, with its Newton record."""

    net: ChainNetwork
    basis: HarmonicBasis
    omega_p: float
    phi: np.ndarray        # (M, n_nodes) reduced node-flux phasors
    d: np.ndarray          # (M, n_branches) junction flux drops
    eps: float             # reduced pump amplitude launched at each port
    ports: tuple           # the pumped ports
    residual: float
    iterations: int
    residual_history: tuple

    def junction_gamma(self, branches=slice(None)) -> np.ndarray:
        """(n_branches, K) FFT coefficients of cos(delta(t)) along the
        converged pump orbit — the conversion matrix entries used to
        linearize the chain around the pump — on the given branches only
        (default all)."""
        delta = _orbit(self.d[:, branches],
                       _samples(self.basis.orders, K_SAMPLES))
        gamma = np.fft.fft(np.cos(delta, out=delta), axis=1)
        gamma /= K_SAMPLES
        return gamma

    @cached_property
    def peak_junction_flux(self) -> float:
        """max_j |delta_j(t)| * phi0, in Wb, over the K_SAMPLES = 128
        samples of one pump period: a lower bound on the orbit's peak (at
        3 GHz/7.1 GHz/0.05 Phi0, 1.8e-4 relative below 512 samples),
        computed once per solution."""
        delta = _orbit(self.d, _samples(self.basis.orders, K_SAMPLES))
        return float(np.max(np.abs(delta), initial=0.0)) * PHI0_BAR


def _sample_count(h_max: int) -> int:
    """Orbit samples of the Newton loop: the smallest power of two
    >= max(32, 4 h_max), so that every offset m +- m' <= 2 h_max of the
    Jacobian is its own frequency bin."""
    return 1 << (max(32, 4 * h_max) - 1).bit_length()


def _samples(orders, k: int) -> np.ndarray:
    """Rows a_l = (cos, -sin)(2 pi m l / k) over the orders m, (k, 2 M):
    the orbit of drop phasors d is 2 a_l . (Re d, Im d) at sample l (see
    _orbit), and (Re, Im) of harmonic m of samples x is sum_l x_l a_l / k."""
    ang = 2 * np.pi / k * np.outer(np.arange(k), orders)
    return np.concatenate([np.cos(ang), -np.sin(ang)], 1)


def _orbit(d: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Real orbit (n_br, k) of phasors d (M, n_br) at the samples of a."""
    return 2 * np.concatenate([d.real, d.imag]).T @ a.T


def _load_blocks(loads: np.ndarray) -> np.ndarray:
    """The part of the Newton Jacobian fixed from step to step: node-band
    blocks (2 w + 1, n, 2 M, 2 M) on channels (Re x_m, then Im x_m) of the
    harmonics' load bands (2 w + 1, n, M), [[Re, -Im], [Im, Re]] each."""
    m = loads.shape[-1]
    re, im = np.arange(m), np.arange(m, 2 * m)
    out = np.zeros(loads.shape[:-1] + (2 * m, 2 * m))
    out[..., re, re] = out[..., im, im] = loads.real
    out[..., re, im] = -loads.imag
    out[..., im, re] = loads.imag
    return out


def _apply_loads(loads: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The harmonics' load bands (2 w + 1, n, M) applied to x (M, n), as
    a C-contiguous (M, n) array with the bits of scipy's CSR product: real
    products, each row summed over ascending columns from zero."""
    w, (m, n) = len(loads) // 2, x.shape
    ab, out = loads.transpose(0, 2, 1), np.zeros((m, n, 2))
    prod = np.zeros((2 * w + 1, m, n + 2 * w, 2))
    prod[:, :, w:n + w, 0] = ab.real * x.real - ab.imag * x.imag
    prod[:, :, w:n + w, 1] = ab.real * x.imag + ab.imag * x.real
    for k in range(-w, w + 1):      # A[i, i + k] = ab[w - k, i + k]
        out += prod[w - k, :, w + k:w + k + n]
    return out.view(complex)[..., 0]


def _newton_step(ops: ChainOperators, loads: np.ndarray, a: np.ndarray,
                 cos_delta: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Newton step dx (M, n) on the unknowns of ops, by one real banded
    LU of J dx = res: J is loads (see _load_blocks) plus, per branch, the
    derivative (2/k) sum_l cos(delta_l) a_l a_l^T of the harmonics of
    sin(delta) by (Re d, Im d) (see _samples), in a band built anew at
    each step (cli._keep_freed_heap keeps the freed one's pages)."""
    k, m2 = a.shape
    coupling = cos_delta @ (a[:, :, None] * a[:, None, :]).reshape(k, -1)
    blocks = conversion_blocks(ops, coupling.reshape(-1, m2, m2) * (2 / k))
    blocks += loads
    rhs = np.concatenate([res.real, res.imag]).T.ravel()
    dx = _solve(channel_band(blocks), rhs).reshape(len(ops.e), 2, -1)
    return (dx[:, 0] + 1j * dx[:, 1]).T


def _predict(ops: ChainOperators, loads: np.ndarray, i_src) -> np.ndarray:
    """Newton's describing-function start (M, n) for drive i_src: higher
    harmonics 0, the fundamental solved (complex banded LU) on loads[:, :, 0]
    plus linear junctions, then at the SPM inductance of the drops found."""
    phi, gain = np.zeros(loads.shape[:0:-1], complex), np.ones(len(ops.g))
    for _ in range(2):          # junction inductances 1/(g gain)
        band = conversion_blocks(ops, gain[:, None, None])[..., 0, 0]
        phi[0] = _solve(loads[:, :, 0] + band, i_src)
        d = phi[0, ops.left + ops.w] - phi[0, ops.left]
        gain = spm_factor(2 * ops.scale * abs(d))
    return phi


def pump_harmonic_balance(net: ChainNetwork, omega_p: float, eps: float,
                          ports, basis: HarmonicBasis) -> PumpSolution:
    """Newton harmonic balance of the pump steady state.

    A pump wave of reduced amplitude eps (see incident_amplitude) at
    omega_p is incident on each of ports, distinct ints 0-3 (ValueError
    otherwise, or if there are none); both Delta ports pumped together
    realize the coupler configuration.  The drive is applied by adaptive
    amplitude continuation whose first step is the full drive: on failure
    the step is halved, and each step starts from the last converged state
    rescaled, else from _predict's orbit, until the step falls below 2 %
    of the drive and NonConvergence is raised with the Newton steps of all
    attempts and the last residual.  The residual is relative to the
    drive, absolute for a zero drive, whose orbit phi = 0 converges at once.
    """
    ports = tuple(ports)
    if not (ports and all(isinstance(p, (int, np.integer))
                          and not isinstance(p, bool) and 0 <= p <= 3
                          for p in ports) and len(set(ports)) == len(ports)):
        raise ValueError(f"need one or more distinct pump ports 0-3: {ports}")

    orders = basis.orders
    a = _samples(orders, _sample_count(max(orders)))
    ops = net.sectors[parity_sector(net, ports)]
    left, right, g, e = ops.left, ops.left + ops.w, ops.g, ops.e
    z = port_impedances(net, omega_p)

    full_src = sum(e[:, p] * 2.0 / math.sqrt(z[p])
                   * incident_amplitude(net, omega_p, p, eps) for p in ports)

    # linear operator per harmonic on reduced flux; its loads keep the
    # pump-frequency reference impedances at every harmonic
    w_m = omega_p * np.array(orders)
    loads = ops.admittance(w_m, [z] * len(w_m), False) * (1j * PHI0_BAR * w_m)
    fixed = _load_blocks(loads)

    def residual(phi, i_src):
        d_br = ops.scale * (phi[:, right] - phi[:, left])
        delta = _orbit(d_br, a)
        s = np.sin(delta) @ a / len(a)
        i_nl = (PHI0_BAR / ops.scale * g) * (s[:, :len(orders)]
                                             + 1j * s[:, len(orders):]).T
        res = _apply_loads(loads, phi)
        res[:, right] += i_nl
        res[:, left] -= i_nl
        res[0] -= i_src
        return res, delta, np.linalg.norm(res) / (np.linalg.norm(i_src)
                                                  or 1.0)

    def newton(phi, i_src):
        """(phi, or None unless converged, rnorm, it, history)."""
        history = []
        res, delta, rnorm = residual(phi, i_src)
        for it in range(MAX_ITER + 1):
            history.append(rnorm)
            if rnorm < TOL or it == MAX_ITER:
                break
            step = _newton_step(ops, fixed, a, np.cos(delta), res)
            # backtracking line search on the residual norm
            for lam in 0.5 ** np.arange(12):
                trial = phi - lam * step
                res_t, delta_t, rn_t = residual(trial, i_src)
                if rn_t < rnorm:
                    break
            else:
                return None, rnorm, it + 1, history
            phi, res, delta, rnorm = trial, res_t, delta_t, rn_t
        return phi if rnorm < TOL else None, rnorm, it, history

    frac, step, steps = 0.0, 1.0, 0
    while frac < 1.0:
        trial_frac = min(1.0, frac + step)
        i_src = full_src * trial_frac
        out = newton(phi_ok * (trial_frac / frac) if frac
                     else _predict(ops, loads, i_src), i_src)
        steps += out[2]
        if out[0] is None:
            step *= 0.5
            if step < 0.02:     # the Newton steps of every attempt
                raise NonConvergence(steps, out[1])
            continue
        frac, phi_ok = trial_frac, out[0]
    phi = ops.to_nodes(phi_ok)
    d_br = phi[:, net.ops.left + 2] - phi[:, net.ops.left]
    rnorm, it, history = out[1:]

    sol = PumpSolution(net, basis, omega_p, phi, d_br, eps, ports, rnorm, it,
                       tuple(history))
    f_p = f"f_P = {omega_p/2e9/math.pi:.4f} GHz"
    peak = sol.peak_junction_flux / FLUX_Q
    if peak > FLUX_CEILING:
        warnings.warn(
            f"peak junction flux {peak:.3f} flux quanta exceeds the "
            f"{FLUX_CEILING:.2f} ceiling at {f_p}; harmonic truncation "
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

    Shape (4, M); the incident pump is subtracted at the pumped ports so
    entries are outgoing waves only.  Every harmonic is referenced to the
    pump-frequency impedances that terminate it in the solve.
    """
    z = port_impedances(pump.net, pump.omega_p)
    omegas = pump.omega_p * np.array(pump.basis.orders)
    v_ports = pump.net.ops.e.T @ (1j * PHI0_BAR * omegas[:, None] * pump.phi).T
    b = v_ports / np.sqrt(z)[:, None]
    for p in pump.ports:        # the fundamental comes first
        b[p, 0] -= incident_amplitude(pump.net, pump.omega_p, p, pump.eps)
    return np.abs(b) ** 2
