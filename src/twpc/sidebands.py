"""Linearized multi-frequency scattering of a weak probe on the pumped chain.

With the pump orbit known, each junction is a time-varying inductance:
a probe perturbation delta(t) carries current phi0 g cos(delta_P(t)) delta,
which couples probe sidebands at omega_n = omega_probe + 2 n omega_P
through the even-harmonic Fourier coefficients of cos(delta_P(t)).
Negative omega_n label the conjugate channel of a down-converted sideband.
The sidebands are the channels of the same conversion-matrix band that
the harmonic-balance Newton step solves; one banded LU yields the
scattering coefficients between all (port, sideband) pairs.  At zero pump
the channels decouple and the n = 0 block reduces to the linear S-matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .device import PHI0_BAR
from .dispersion import Mode, cutoff
from .errors import NonConvergence, SingularNetwork, TruncationWarning
from .harmonic_balance import (Drive, HarmonicBasis, K_SAMPLES, PumpSolution,
                               incident_amplitude, pump_harmonic_balance)
from .network import (ChainNetwork, PORTS, _solve, conversion_band,
                      port_impedances)


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
    """Caches the pump orbit's conversion coefficients for repeated probes."""

    def __init__(self, net: ChainNetwork, pump: PumpSolution | None,
                 n_sidebands: int = 2):
        self.net = net
        self.pump = pump
        self.n_sb = n_sidebands
        if pump is not None:
            self.gamma = pump.junction_gamma()
        else:   # unpumped junctions: cos(delta) = 1
            self.gamma = np.zeros((len(net.ops.g), K_SAMPLES))
            self.gamma[:, 0] = 1.0

    def solve(self, omega_probe: float) -> SignalScattering:
        net, nsb = self.net, self.n_sb
        omega_p = self.pump.omega_p if self.pump is not None else 0.0
        harmonics = 2 * np.arange(-nsb, nsb + 1)
        freqs = omega_probe + harmonics * omega_p
        if np.any(np.abs(freqs) < 1e3):
            raise SingularNetwork("a sideband falls at zero frequency")
        nb = len(harmonics)
        e = net.ops.e
        z = np.array([port_impedances(net, abs(w)) for w in freqs])
        ab = conversion_band(net, freqs, harmonics, z, self.gamma)

        # Norton drive of a unit incident wave on each (sideband, port)
        drive = np.eye(nb)[:, :, None] * (2.0 / np.sqrt(z))[:, None, :]
        rhs = np.einsum("kp,ijp->kijp", e, drive).reshape(-1, nb * 4)
        sol = _solve(ab, rhs).reshape(-1, nb, nb * 4)
        v_ports = np.einsum("kq,kij->iqj", e, sol, optimize=True) \
            * (1j * PHI0_BAR * freqs)[:, None, None]
        s = (v_ports / np.sqrt(z)[:, :, None]).reshape(nb, 4, nb, 4)
        s -= np.eye(nb * 4).reshape(nb, 4, nb, 4)

        prop = np.abs(freqs)[:, None] < [cutoff(m, net.cell) for m, _ in PORTS]

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
