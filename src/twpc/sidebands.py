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
transmission_map solves one pump row of a map around an orbit the caller
has solved, each probe on its band, and returns complex amplitudes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .device import PHI0_BAR
from .dispersion import cutoff
from .errors import SingularNetwork, TruncationWarning
from .harmonic_balance import PumpSolution
from .network import (PARITY, PORTS, _channel_loads, _load_rows, _solve,
                      conversion_band, parity_sector, port_impedances)


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
    """Solves probes around one pump orbit, on the pump's own line
    pump.net, for one list of incident (sideband, port) channels, index
    pairs as in SignalScattering.  It builds the pump part of the
    conversion band once in each sector its channels use: per
    electrode-parity sector where both electrodes see the same
    cos(delta_P(t)) (see the module docstring), else in the node basis,
    the one sector sign None.  A probe rewrites only the 2 w + 1
    channel-load rows of each band.  LAPACK runs without scipy's finite
    check: the pump bands are checked once, and each probe checks its port
    impedances (which set its drives) and the load rows it writes.  The
    truncation check reads the probe's own channel (n_sidebands, 0), so
    channels, all of them if None, must include it; n_sidebands is an
    int >= 0 (ValueError otherwise)."""

    def __init__(self, pump: PumpSolution, channels, n_sidebands: int = 2):
        if not (isinstance(n_sidebands, (int, np.integer)) and
                not isinstance(n_sidebands, bool) and n_sidebands >= 0):
            raise ValueError(
                f"n_sidebands must be an int >= 0: {n_sidebands!r}")
        self.net = net = pump.net
        self.n_sb = n_sidebands
        self.omega_p = pump.omega_p
        self.harmonics = 2 * np.arange(-n_sidebands, n_sidebands + 1)
        nb = len(self.harmonics)
        if channels is None:
            channels = list(np.ndindex(nb, 4))
        self.probe = [tuple(c) for c in channels].index((n_sidebands, 0))
        self.chan = i, p = np.array(channels).T
        k = np.arange(len(channels))
        if parity_sector(net, pump.ports) is None:
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
            band = conversion_band(ops, gamma[:, q])
            if not np.isfinite(band).all():
                raise SingularNetwork("non-finite pump band")
            node = np.flatnonzero(ops.e.any(1))[:, None]
            e = ops.e[node[:, 0]]
            self.sectors[sign] = (
                band, ops, _load_rows(band, ops.w, nb).copy(),
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
            loads = np.add(rows, _channel_loads(ops, freqs, z),
                           out=_load_rows(band, ops.w, len(freqs)))
            if not np.isfinite(loads).all():
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


def signal_sidebands(pump: PumpSolution, omega_probe: float,
                     n_sidebands: int = 2, channels=None) -> SignalScattering:
    """Multi-frequency probe scattering around a converged pump orbit, on
    the line the pump was solved on (pump.net).

    channels lists the incident (sideband, port) pairs to solve, all of
    them by default; it must include the probe's Sigma-L channel
    (n_sidebands, 0), and the columns of the others are NaN."""
    lin = _PumpedLinearizer(pump, channels, n_sidebands)
    freqs, s_in = lin.solve(omega_probe)
    nb = len(freqs)
    s = np.full((nb, 4, nb, 4), np.nan, complex)
    i, p = lin.chan
    s[:, :, i, p] = s_in
    prop = np.abs(freqs)[:, None] < [cutoff(m, pump.net.cell)
                                     for m, _ in PORTS]
    return SignalScattering(omega_probe, lin.omega_p, n_sidebands, freqs, s,
                            prop)


def transmission_map(pump: PumpSolution, probe_freqs, n_sidebands: int = 2):
    """One pump row of a map: the Sigma-mode transmissions around the
    solved orbit pump, on its line pump.net.  Returns (s_fw, s_bw,
    failures): complex arrays of shape (len(probe_freqs),), forward = L to
    R and NaN where not solved, and a list of (j, reason) for probe j that
    failed; a non-finite pump band raises SingularNetwork."""
    lin = _PumpedLinearizer(  # Sigma-L and Sigma-R probe columns only
        pump, [(n_sidebands, 0), (n_sidebands, 2)], n_sidebands)
    s_fw = np.full(len(probe_freqs), np.nan, complex)
    s_bw = s_fw.copy()
    failures = []
    z = lin.impedances(probe_freqs)
    for j, wpr in enumerate(probe_freqs):
        try:
            _, s = lin.solve(wpr, z[j])
        except SingularNetwork as exc:
            failures.append((j, str(exc)))
            continue
        s_fw[j], s_bw[j] = s[n_sidebands, [2, 0], [0, 1]]
    return s_fw, s_bw, failures
