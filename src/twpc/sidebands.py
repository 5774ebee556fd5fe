"""Linearized multi-frequency scattering of a weak probe on the pumped chain.

With the pump orbit known, each junction is a time-varying inductance:
a probe perturbation delta(t) carries current phi0 g cos(delta_P(t)) delta,
which couples probe sidebands at omega_n = omega_probe + 2 n omega_P
through the even-harmonic Fourier coefficients of cos(delta_P(t)).
Negative omega_n label the conjugate channel of a down-converted sideband.
The sidebands are the channels of the conversion-matrix band that the
harmonic-balance Newton step also solves.  Its pump part is built once per
pump orbit and list of incident (sideband, port) channels the caller
reads; each probe writes its channel loads into the band's load rows and
solves one banded LU for those channels.  When the two electrodes are
identical and the pump drives only Sigma or only Delta ports, the band
commutes with swapping the electrodes and splits exactly into an even
(Sigma) and an odd (Delta) sector of nb (n_cells + 1) unknowns each
(kl = 2 nb - 1, against nb n_nodes and 3 nb - 1 in the node basis); each
channel is then solved in its port's sector, a sector no channel uses
gets no band, and outputs in the other sector are exactly 0.  At zero
pump the channels decouple and the n = 0 block reduces to the linear
S-matrix.
transmission_map solves one pump row of a map: one harmonic-balance orbit
(from its describing-function start), then each probe on its band.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .device import PHI0_BAR
from .dispersion import cutoff
from .errors import NonConvergence, SingularNetwork, TruncationWarning
from .harmonic_balance import (Drive, HarmonicBasis, PumpSolution,
                               incident_amplitude, pump_harmonic_balance)
from .network import (PARITY, PORTS, ChainNetwork, _solve,
                      add_channel_loads, channel_band, conversion_blocks,
                      parity_sector, port_impedances)


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
    """Solves probes around one pump orbit for one list of incident
    (sideband, port) channels, index pairs as in SignalScattering.  It
    builds the pump part of the conversion band once in each sector its
    channels use: per electrode-parity sector where both electrodes see
    the same cos(delta_P(t)) (see the module docstring), else in the node
    basis, the one sector sign None.  A probe rewrites only the 2 w + 1
    channel-load rows of each band.  LAPACK runs without scipy's finite
    check: the pump bands are checked once, and each probe checks its port
    impedances (which set its drives) and the load rows it writes.  The
    truncation check reads the probe's own channel (n_sidebands, 0), so
    channels must include it."""

    def __init__(self, net: ChainNetwork, pump: PumpSolution, channels,
                 n_sidebands: int = 2):
        self.net, self.n_sb = net, n_sidebands
        self.omega_p = pump.omega_p
        self.harmonics = 2 * np.arange(-n_sidebands, n_sidebands + 1)
        nb = len(self.harmonics)
        self.probe = [tuple(c) for c in channels].index((n_sidebands, 0))
        self.chan = i, p = np.array(channels).T
        k = np.arange(len(channels))
        if parity_sector(net, [d.port for d in pump.drives]) is None:
            sectors = {None: k}
        else:   # each channel in its port's sector
            parity = np.take(PARITY, p)
            sectors = {s: k[parity == s] for s in (1, -1) if s in parity}
        # the same branches in both parity sectors
        branches = net.sectors[next(iter(sectors))].branches
        gamma = pump.junction_gamma(branches)
        q = np.subtract.outer(self.harmonics, self.harmonics) % gamma.shape[1]
        # per sector: its pump band and operators, the pump part of the
        # band's channel-load rows, and the plan of its channels: their
        # columns k and (i, p), their drives' rhs entries and e values on
        # the unknowns the ports touch, the rows of the solution on those
        # unknowns, e^T on them
        self.sectors = {}
        for sign, cols in sectors.items():
            ops = net.sectors[sign]
            blocks = conversion_blocks(ops, gamma[:, q])
            band = channel_band(blocks)
            if not np.isfinite(band).all():
                raise SingularNetwork("non-finite pump band")
            node = np.flatnonzero(ops.e.any(1))[:, None]
            e = ops.e[node[:, 0]]
            self.sectors[sign] = (
                band, ops, np.diagonal(blocks, 0, 2, 3).copy(),
                (cols, (i[cols], p[cols]),
                 (node * nb + i[cols], np.arange(len(cols))), e[:, p[cols]],
                 (node * nb + np.arange(nb)).ravel(), e.T))

    def impedances(self, omega_probes) -> np.ndarray:
        """Port impedances (len(omega_probes), nb, 4) at the sidebands of
        each probe, in one pass (a sideband that solve rejects as zero
        frequency is taken at 1e3 rad/s)."""
        freqs = np.asarray(omega_probes, float)[:, None] \
            + self.harmonics * self.omega_p
        return port_impedances(self.net, np.maximum(np.abs(freqs), 1e3)
                               .ravel()).reshape(freqs.shape + (4,))

    def solve(self, omega_probe: float, z=None):
        """Sideband frequencies (nb,) and outgoing waves s (nb, 4, k):
        s[i, q, j] at (sideband i, port q) for a unit incident wave on the
        j-th of the k channels; z, the sidebands' port impedances (nb, 4),
        is computed when not given.  Outputs in another sector than the
        incident port's are exactly 0."""
        freqs = omega_probe + self.harmonics * self.omega_p
        if np.abs(freqs).min() < 1e3:
            raise SingularNetwork("a sideband falls at zero frequency")
        if z is None:
            z = self.impedances([omega_probe])[0]
        if not 0 < z.min() <= z.max() < math.inf:   # also NaN
            raise SingularNetwork("port impedance not finite and positive")
        rz = np.sqrt(z)
        i, p = self.chan
        s = np.zeros((len(freqs), 4, len(i)), complex)
        for band, ops, rows, plan in self.sectors.values():
            cols, chan, entries, drive, out, e_t = plan
            if not np.isfinite(add_channel_loads(rows, ops, freqs, z,
                                                 band)).all():
                raise SingularNetwork("non-finite channel loads")
            # Norton drive of a unit incident wave on each channel
            rhs = np.zeros((band.shape[1], len(cols)))
            rhs[entries] = drive * (2.0 / rz[chan])
            sol = _solve(band, rhs, check_finite=False)
            v = e_t @ sol[out].reshape(e_t.shape[1], -1)
            s[:, :, cols] = v.reshape(4, len(freqs), -1).transpose(1, 0, 2) \
                * (1j * PHI0_BAR * freqs)[:, None, None] / rz[:, :, None]
        s[i, p, np.arange(len(i))] -= 1.0

        pwr = np.abs(s[:, :, self.probe]) ** 2
        total, edge = pwr.sum(), pwr[0].sum() + pwr[-1].sum()
        if self.n_sb > 0 and total > 0 and edge > 0.01 * total:
            warnings.warn(
                f"outermost sidebands carry {edge/total:.1%} of the scattered "
                f"probe power at f_P = {self.omega_p/2e9/math.pi:.4f} GHz, "
                f"f_probe = {omega_probe/2e9/math.pi:.4f} GHz; increase "
                "n_sidebands", TruncationWarning)
        return freqs, s


def signal_sidebands(net: ChainNetwork, pump: PumpSolution,
                     omega_probe: float, n_sidebands: int = 2,
                     channels=None) -> SignalScattering:
    """Multi-frequency probe scattering around a converged pump orbit.

    channels lists the incident (sideband, port) pairs to solve, all of
    them by default; it must include the probe's Sigma-L channel
    (n_sidebands, 0), and the columns of the others are NaN."""
    nb = 2 * n_sidebands + 1
    if channels is None:
        channels = list(np.ndindex(nb, 4))
    lin = _PumpedLinearizer(net, pump, channels, n_sidebands)
    freqs, s_in = lin.solve(omega_probe)
    s = np.full((nb, 4, nb, 4), np.nan, complex)
    i, p = np.array(channels).T
    s[:, :, i, p] = s_in
    prop = np.abs(freqs)[:, None] < [cutoff(m, net.cell) for m, _ in PORTS]
    return SignalScattering(omega_probe, lin.omega_p, n_sidebands, freqs, s,
                            prop)


def transmission_map(net: ChainNetwork, omega_p: float, probe_freqs,
                     epsilon_p: float, pump_ports=(3,),
                     basis: HarmonicBasis = HarmonicBasis(3),
                     n_sidebands: int = 2):
    """One pump row of the |S| map of the pumped line: Sigma-mode
    transmission in dB versus probe frequency at pump frequency omega_p.

    epsilon_p is the reduced amplitude of the pump launched from each of
    pump_ports.  Returns (s_fw_dB, s_bw_dB, failures): arrays of shape
    (len(probe_freqs),), forward = L to R and NaN where not solved, and a
    list of (j, reason) for probe j that failed, with j = None when the
    pump itself failed.
    """
    s_fw = np.full(len(probe_freqs), np.nan)
    s_bw = np.full_like(s_fw, np.nan)
    try:
        drives = [Drive(p, omega_p, incident_amplitude(net, omega_p, p,
                                                       epsilon_p))
                  for p in pump_ports]
        lin = _PumpedLinearizer(  # Sigma-L and Sigma-R probe columns only
            net, pump_harmonic_balance(net, drives, basis),
            [(n_sidebands, 0), (n_sidebands, 2)], n_sidebands)
    except (NonConvergence, SingularNetwork) as exc:
        return s_fw, s_bw, [(None, str(exc))]
    failures = []
    z = lin.impedances(probe_freqs)
    for j, wpr in enumerate(probe_freqs):
        try:
            _, s = lin.solve(wpr, z[j])
        except SingularNetwork as exc:
            failures.append((j, str(exc)))
            continue
        s_fw[j], s_bw[j] = (20.0 * math.log10(max(abs(x), 1e-300))
                            for x in s[n_sidebands, [2, 0], [0, 1]])
    return s_fw, s_bw, failures
