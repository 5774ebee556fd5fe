"""Linearized multi-frequency scattering of a weak probe on the pumped chain.

With the pump orbit known, each junction is a time-varying inductance:
a probe perturbation delta(t) carries current phi0 g cos(delta_P(t)) delta,
which couples probe sidebands at omega_n = omega_probe + 2 n omega_P
through the even-harmonic Fourier coefficients of cos(delta_P(t)).
Negative omega_n label the conjugate channel of a down-converted sideband.
One block-sparse linear solve yields the scattering coefficients between
all (port, sideband) pairs; at zero pump the off-diagonal blocks vanish
and the n = 0 block reduces to the linear S-matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .device import PHI0_BAR
from .dispersion import Mode, cutoff
from .errors import NonConvergence, SingularNetwork, TruncationWarning
from .harmonic_balance import (Drive, HarmonicBasis, K_SAMPLES, PumpSolution,
                               incident_amplitude, pump_harmonic_balance)
from .network import (ChainNetwork, PORTS, admittance_matrix,
                      band_to_sparse, port_impedances)


@dataclass(frozen=True)
class SignalScattering:
    """Scattering coefficients between (sideband, port) channels.

    freqs[i] is the signed sideband frequency omega_probe + 2 n omega_P
    with n = i - n_sidebands; s[i_out, q, i_in, p] is the outgoing wave at
    (sideband i_out, port q) for a unit incident wave at (i_in, p).
    propagating[i, q] flags sidebands below the cutoff of port q's mode.
    """

    omega_probe: float
    omega_p: float
    n_sidebands: int
    freqs: np.ndarray
    s: np.ndarray
    propagating: np.ndarray

    def s0(self) -> np.ndarray:
        """The 4x4 probe-frequency block (n_out = n_in = 0)."""
        c = self.n_sidebands
        return self.s[c, :, c, :]


class _PumpedLinearizer:
    """Caches the pump-dependent coupling matrices for repeated probes."""

    def __init__(self, net: ChainNetwork, pump: PumpSolution | None,
                 n_sidebands: int = 2):
        self.net = net
        self.pump = pump
        self.n_sb = n_sidebands
        dmat, g = net.ops.d, net.ops.g
        if pump is not None:
            gamma = pump.junction_gamma()
        else:
            gamma = np.zeros((len(g), K_SAMPLES))
            gamma[:, 0] = 1.0
        # coupling operator for each even harmonic offset q >= 0
        self.w = {}
        for q in range(0, 4 * n_sidebands + 1, 2):
            wq = PHI0_BAR * (dmat.T @ sp.diags(g * gamma[:, q % K_SAMPLES])
                             @ dmat)
            self.w[q] = wq.tocsr()
            self.w[-q] = wq.conj().tocsr()

    def solve(self, omega_probe: float) -> SignalScattering:
        net, nsb = self.net, self.n_sb
        n = net.n_nodes
        omega_p = self.pump.omega_p if self.pump is not None else 0.0
        ns = np.arange(-nsb, nsb + 1)
        freqs = omega_probe + 2.0 * ns * omega_p
        if np.any(np.abs(freqs) < 1e3):
            raise SingularNetwork("a sideband falls at zero frequency")
        nb = len(ns)
        e = net.ops.e
        z = np.array([port_impedances(net, abs(w)) for w in freqs])

        blocks = [[None] * nb for _ in range(nb)]
        for i, wn in enumerate(freqs):
            lin = band_to_sparse(
                admittance_matrix(net, wn, z[i], inductive=False)
                * (1j * wn * PHI0_BAR))
            for j in range(nb):
                q = 2 * (ns[i] - ns[j])
                blk = self.w[q]
                if i == j:
                    blk = blk + lin
                blocks[i][j] = blk
        a = sp.bmat(blocks).tocsc()

        rhs = np.zeros((nb * n, nb * 4), complex)
        for i in range(nb):
            for p in range(4):
                rhs[i * n:(i + 1) * n, 4 * i + p] = \
                    e[:, p] * 2.0 / math.sqrt(z[i, p])
        try:
            sol = spla.splu(a).solve(rhs)
        except RuntimeError as exc:
            raise SingularNetwork(str(exc))
        if not np.all(np.isfinite(sol)):
            raise SingularNetwork("non-finite sideband solution")

        s = np.zeros((nb, 4, nb, 4), complex)
        for i, wn in enumerate(freqs):
            v_ports = e.T @ (1j * wn * PHI0_BAR * sol[i * n:(i + 1) * n, :])
            b = v_ports / np.sqrt(z[i])[:, None]
            s[i] = b.reshape(4, nb, 4)
        for i in range(nb):
            for p in range(4):
                s[i, p, i, p] -= 1.0

        prop = np.zeros((nb, 4), bool)
        for q, (mode, _) in enumerate(PORTS):
            prop[:, q] = np.abs(freqs) < cutoff(mode, net.cell)

        # truncation check on the probe-driven column
        c = nsb
        pwr = np.abs(s[:, :, c, 0]) ** 2
        total = pwr.sum()
        edge = pwr[0].sum() + pwr[-1].sum()
        if nsb > 0 and total > 0 and edge > 0.01 * total:
            warnings.warn(
                f"outermost sidebands carry {edge/total:.1%} of the "
                "scattered probe power; increase n_sidebands",
                TruncationWarning)
        return SignalScattering(omega_probe, omega_p, nsb, freqs, s, prop)


def signal_sidebands(net: ChainNetwork, pump: PumpSolution | None,
                     omega_probe: float,
                     n_sidebands: int = 2) -> SignalScattering:
    """Multi-frequency probe scattering around a converged pump orbit."""
    return _PumpedLinearizer(net, pump, n_sidebands).solve(omega_probe)


def transmission_map(net: ChainNetwork, pump_freqs, probe_freqs,
                     epsilon_p: float, pump_ports=(3,),
                     basis: HarmonicBasis = HarmonicBasis(3),
                     n_sidebands: int = 2):
    """|S| maps of the pumped line versus (pump, probe) frequency.

    epsilon_p is the reduced amplitude of each launched pump.  Returns
    (s_fw_dB, s_bw_dB, failures): arrays of shape
    (len(pump_freqs), len(probe_freqs)) of Sigma-mode transmission in dB
    (forward = L to R) and a list of (i, j, reason) for points that did
    not converge (left as NaN).
    """
    s_fw = np.full((len(pump_freqs), len(probe_freqs)), np.nan)
    s_bw = np.full_like(s_fw, np.nan)
    failures = []
    for i, wp in enumerate(pump_freqs):
        try:
            drives = [Drive(p, wp, incident_amplitude(net, wp, p, epsilon_p))
                      for p in pump_ports]
            pump = pump_harmonic_balance(net, drives, basis)
            lin = _PumpedLinearizer(net, pump, n_sidebands)
        except (NonConvergence, SingularNetwork) as exc:
            failures.append((i, None, str(exc)))
            continue
        for j, wpr in enumerate(probe_freqs):
            try:
                sc = lin.solve(wpr)
            except SingularNetwork as exc:
                failures.append((i, j, str(exc)))
                continue
            s0 = sc.s0()
            s_fw[i, j] = 20.0 * math.log10(max(abs(s0[2, 0]), 1e-300))
            s_bw[i, j] = 20.0 * math.log10(max(abs(s0[0, 2]), 1e-300))
    return s_fw, s_bw, failures
