"""Discrete linear 4-port model of the full chain.

The chain is assembled as N symmetric pi-sections: each cell carries its
series junction branches (L shunted by C_J, one per electrode) with half
of the shunt capacitance (C_g to ground, C_i between electrodes) on each
side.  End columns therefore hold half-weight shunts, which makes the
image (Bloch) impedance termination exactly reflectionless at every
frequency below cutoff.

Nodes are the 2(N+1) electrode columns, interleaved (a_0, b_0, a_1, b_1,
...) so that every nodal matrix of the chain, defects and disorder
included, has bandwidth 2 and is solved by banded LU.  Ports are defined
in the Sigma/Delta mode basis at both ends, ordered

    0: (Sigma, L)   1: (Delta, L)   2: (Sigma, R)   3: (Delta, R).

Mode variables use the orthonormal transform V_Sigma = (V_a + V_b)/sqrt(2),
V_Delta = (V_b - V_a)/sqrt(2) (same for currents), under which the mode
characteristic impedances equal the per-electrode values sqrt(L_J/C_g) and
sqrt(L_J/(C_g + 2 C_i)).  A matrix that commutes with swapping the
electrodes keeps V_Sigma and V_Delta apart: ChainNetwork.sectors holds
its operators on either one, one unknown per column (see parity_sector).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .device import PHI0_BAR, CellParams, LineSpec, sample_disorder
from .dispersion import Mode, _shunt_cap, wavevector
from .errors import ConfigError, DecompositionIllConditioned, SingularNetwork

#: port order (mode, side)
PORTS = ((Mode.Sigma, "L"), (Mode.Delta, "L"),
         (Mode.Sigma, "R"), (Mode.Delta, "R"))

#: parity of each port's mode under swapping the electrodes: Sigma even
#: (+1), Delta odd (-1)
PARITY = (1, -1, 1, -1)

# orthonormal mode transform V_m = A_MODE V_e for electrode order (a, b),
# mode order (Sigma, Delta); currents map as I_e = A_MODE.T I_m
_S2 = 1.0 / math.sqrt(2.0)
A_MODE = np.array([[_S2, _S2], [-_S2, _S2]])


@dataclass(frozen=True)
class ChainOperators:
    """Frequency-independent operators of a chain on its n unknowns: the
    nodes (sign None, node bandwidth w = 2), or the one unknown
    (sign V_a + V_b)/sqrt(2) per column of an electrode-parity sector
    (w = 1), exact on identical electrodes.  Y(omega) = i omega C +
    Gamma/(i omega) + loads, with C and Gamma = D^T diag(g) D in band
    storage, D the drops scale (x[left + w] - x[left]) of the branches (a
    sector keeps the b electrode's, whose currents, times 1/scale, stand
    for both), and the loads sum_p y[:, p] / z_p at band positions
    (rows, cols)."""

    sign: object
    w: int
    scale: float
    c_band: np.ndarray      # (2 w + 1, n)
    gamma_band: np.ndarray  # (2 w + 1, n)
    branches: np.ndarray    # (n_branches,) index in the node basis's list
    left: np.ndarray        # (n_branches,) electrode-major, opens removed
    g: np.ndarray           # (n_branches,) 1/L per junction branch
    e: np.ndarray           # (n, 4) unit mode current injection per port
    rows: np.ndarray
    cols: np.ndarray
    y: np.ndarray           # (len(rows), 4)

    def admittance(self, omegas, z, inductive=True) -> np.ndarray:
        """Node bands (2 w + 1, n, nb) of Y at omegas[c] with port
        impedances z[c].  inductive=False leaves out the junction
        inductances, which the pumped solvers carry as junction currents."""
        ab = self.c_band[..., None] * (1j * np.asarray(omegas))
        if inductive:   # same bits as / (1j w)
            ab += self.gamma_band[..., None] * (1 / (1j * np.asarray(omegas)))
        ab[self.rows, self.cols] += (self.y[:, None] / z).sum(-1)
        return ab

    def to_nodes(self, x: np.ndarray) -> np.ndarray:
        """Node values (..., n_nodes) of x (..., n) on these unknowns."""
        return x if self.sign is None else (
            x[..., None] * [self.sign * _S2, _S2]).reshape(*x.shape[:-1], -1)


@dataclass(frozen=True)
class ChainNetwork:
    """Element values of the chain after disorder/defect application."""

    cell: CellParams
    n_cells: int
    l_table: np.ndarray       # (n_cells, 2) junction inductances, inf = open
    port_z: object            # "bloch" or sequence of 4 reference impedances

    @property
    def n_nodes(self) -> int:
        return 2 * (self.n_cells + 1)

    @cached_property
    def ops(self) -> ChainOperators:
        """Operators on the nodes, built on first use and kept."""
        return _chain_operators(self)

    @cached_property
    def sectors(self) -> dict:
        """Operators on the nodes (None) and the parity sectors (1, -1)."""
        return {s: _chain_operators(self, s) if s else self.ops
                for s in (None, 1, -1)}


def build_chain(spec: LineSpec, port_z="bloch") -> ChainNetwork:
    """Assemble the chain; deterministic for a given spec seed.

    port_z selects the port reference impedances: "bloch" for the exact
    image impedance of the pi-section (frequency dependent), "lowfreq"
    for the constant long-wavelength values Z_Sigma/Z_Delta, or an
    explicit sequence of 4 ohm values in port order.
    """
    if isinstance(port_z, str) and port_z not in ("bloch", "lowfreq"):
        raise ConfigError([("ports", f"unknown port impedances {port_z!r}")])
    if not isinstance(port_z, str):
        try:
            port_z = tuple(float(z) for z in port_z)
        except (TypeError, ValueError):
            port_z = ()
        if len(port_z) != 4 or not all(0 < z < math.inf for z in port_z):
            raise ConfigError(
                [("ports", "need 4 finite positive impedances (ohm)")])
    table = sample_disorder(spec)
    table.setflags(write=False)
    return ChainNetwork(spec.cell, spec.n_cells, table, port_z)


def _stamp_branches(ab, left, val, w):
    """Add two-terminal elements val between unknowns left and
    right = left + w (adjacent columns) to band storage ab of node
    bandwidth w; val and ab may share trailing axes, one band per trailing
    index.  The left unknowns are distinct: one branch per column."""
    right = left + w
    diag = np.zeros(ab.shape[1:], np.result_type(val))
    diag[left] = val
    diag[right] += val
    ab[w] += diag
    ab[0, right] -= val
    ab[2 * w, left] -= val


def _chain_operators(net: ChainNetwork, sign=None) -> ChainOperators:
    n_cells, n, cell = net.n_cells, net.n_nodes, net.cell
    # junction branches, electrode-major; open (defect) branches removed
    elec, cells = np.divmod(np.arange(2 * n_cells), n_cells)
    l = net.l_table.T.ravel()
    keep = np.isfinite(l)
    elec, cells, g = elec[keep], cells[keep], 1.0 / l[keep]

    # I_e = A_MODE.T I_m on the two nodes of the port's end column
    a = A_MODE.T[:, [0 if mode is Mode.Sigma else 1 for mode, _ in PORTS]]
    col = np.array([0 if side == "L" else n - 2 for _, side in PORTS])
    e = np.zeros((n, 4))
    e[col, np.arange(4)], e[col + 1, np.arange(4)] = a

    # shunts C_g (each electrode) and C_i (between electrodes), half
    # weight on the end columns
    wt = np.r_[0.5, np.ones(n_cells - 1), 0.5]
    if sign is None:
        w, scale, branches, left = 2, 1.0, np.arange(len(g)), 2 * cells + elec
        c_band = np.zeros((5, n))
        c_band[2] = np.repeat(wt * (cell.c_g + cell.c_i), 2)
        c_band[1, 1::2] = -wt * cell.c_i     # entries (a_c, b_c)
        c_band[3, 0::2] = -wt * cell.c_i     # entries (b_c, a_c)
    else:   # (C_aa + C_bb + sign (C_ab + C_ba)) / 2 on each column
        w, scale, branches = 1, _S2, np.flatnonzero(elec == 1)
        left = cells[branches]
        c_band = np.zeros((3, n_cells + 1))
        c_band[1] = wt * (cell.c_g if sign > 0 else cell.c_delta)
        e = (sign * e[0::2] + e[1::2]) * _S2
    g = g[branches]
    _stamp_branches(c_band, left, np.full(len(g), cell.c_j), w)
    gamma_band = np.zeros_like(c_band)
    _stamp_branches(gamma_band, left, g, w)

    # the port loads E diag(1/z) E.T on the end unknowns the ports touch
    i, j = (x.ravel() for x in np.meshgrid(*2 * [np.flatnonzero(e.any(1))],
                                           indexing="ij"))
    near = abs(i - j) <= w
    return ChainOperators(sign, w, scale, c_band, gamma_band, branches, left,
                          g, e, (w + i - j)[near], j[near],
                          (e[i] * e[j])[near])


def parity_sector(net: ChainNetwork, ports):
    """Electrode-parity sector of the chain's response to drives on ports:
    their common PARITY when the electrodes are identical, so that the
    chain commutes with swapping them; None (the nodes) else."""
    parities = {PARITY[p] for p in ports}
    same = np.array_equal(net.l_table[:, 0], net.l_table[:, 1])
    return parities.pop() if same and len(parities) == 1 else None


def bloch_impedance(mode: Mode, omega: float, cell: CellParams) -> complex:
    """Image impedance of one symmetric pi-section (real below cutoff)."""
    c = _shunt_cap(mode, cell)
    if omega == 0:      # the long-wavelength limit sqrt(L_J / c)
        return complex(math.sqrt(cell.l_j / c))
    y_se = 1.0 / (1j * omega * cell.l_j) + 1j * omega * cell.c_j
    y_sh = 0.5j * omega * c
    if y_se == 0:       # at the plasma frequency: the limit 1 / y_sh
        return 1.0 / y_sh
    z_se = 1.0 / y_se
    den = y_sh * (2.0 + z_se * y_sh)
    if den == 0:        # at a cutoff: the limit, an infinite impedance
        return complex(math.inf)
    return cmath.sqrt(z_se / den)


def port_impedances(net: ChainNetwork, omega) -> np.ndarray:
    """Reference impedance of each port at omega (always real): (4,), or
    (len(omega), 4) for a 1-d array omega.  The Bloch ones repeat
    bloch_impedance on its nonzero parts, all real or imaginary below
    cutoff; the low-frequency values stand in above (and at omega = 0)."""
    w = np.asarray(omega, float)[..., None]
    z = net.port_z
    if not isinstance(z, tuple):
        z = np.array([net.cell.z_sigma, net.cell.z_delta] * 2)
    if net.port_z == "bloch":
        cell = net.cell
        y_sh = 0.5 * w * np.array([cell.c_g, cell.c_delta] * 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            z_se = -1 / (-1 / (w * cell.l_j) + w * cell.c_j)
            arg = z_se / (y_sh * (2.0 - z_se * y_sh))
            z = np.where((0 < arg) & (arg < np.inf), np.sqrt(arg), z)
    return np.broadcast_to(z, w.shape[:-1] + (4,)).copy()


# ---------------------------------------------------------------------------
# Y(omega) = i omega C + Gamma/(i omega) + G_loads, in band storage

def admittance_matrix(net: ChainNetwork, omega: float, z) -> np.ndarray:
    """Band storage (kl = ku = 2) of the nodal admittance at omega with
    port reference impedances z (see ChainOperators.admittance)."""
    return net.ops.admittance([omega], [z])[..., 0]


def conversion_band(ops: ChainOperators, coupling: np.ndarray) -> np.ndarray:
    """LAPACK band storage (kl = ku = (w + 1) nb - 1, index node * nb + c)
    on the unknowns of ops of the junctions linearized about a pump orbit:
    channel c' drives c through phi0 D^T diag(g coupling[:, c, c']) D, with
    coupling (branches of ops, nb, nb) from the Fourier coefficients of
    cos(delta(t)) per junction (in a sector the two electrodes' halves add
    up to one whole stamp: current weight times drop scale is 1).  The
    solvers add their loads through _load_rows."""
    w, n, nb = ops.w, len(ops.e), coupling.shape[-1]
    blocks = np.zeros((2 * w + 1, n, nb, nb), coupling.dtype)
    _stamp_branches(blocks, ops.left,
                    PHI0_BAR * ops.g[:, None, None] * coupling, w)
    # node band row r holds node offset r - w, i.e. offset (r - w) nb + c - c'
    ku = (w + 1) * nb - 1
    r, c, c2 = np.ogrid[:2 * w + 1, :nb, :nb]
    out = np.zeros((2 * ku + 1, n * nb), blocks.dtype)
    out.reshape(2 * ku + 1, n, nb)[ku + (r - w) * nb + c - c2, :, c2] = \
        np.moveaxis(blocks, 1, -1)
    return out


def _load_rows(band: np.ndarray, w: int, nb: int, shift=0) -> np.ndarray:
    """The entries (c + shift, c), |shift| < nb, of a channel band's diagonal
    blocks as a view (2 w + 1, n, nb); shift 0 holds the channels' loads."""
    row = (len(band) - 1) // 2 + shift     # the band row of offset shift
    return band.reshape(len(band), -1, nb)[row - w * nb:row + w * nb + 1:nb]


def _channel_loads(ops: ChainOperators, omegas, z) -> np.ndarray:
    """Node bands (2 w + 1, n, nb) of i omega_c phi0 Y_c without the
    junction inductances, at the signed frequency omegas[c] with port
    impedances z[c], on the unknowns of ops."""
    loads = ops.admittance(omegas, z, inductive=False)
    loads *= 1j * PHI0_BAR * np.asarray(omegas)
    return loads


def _solve(ab, b, check_finite=True):
    """Banded LU with partial pivoting of ab (kl = ku), which stays as it
    is (scipy's overwrite_ab=False contract).  check_finite=False leaves
    the check for non-finite entries of ab and b to the caller, as the
    sideband probes do (see sidebands._PumpedLinearizer): LAPACK may
    return a finite, wrong solution for a band that holds an inf."""
    from scipy.linalg import solve_banded  # loaded at first use
    kl = (ab.shape[0] - 1) // 2
    try:
        x = solve_banded((kl, kl), ab, b, overwrite_ab=False,
                         check_finite=check_finite)
    except (np.linalg.LinAlgError, ValueError) as exc:  # singular, non-finite
        raise SingularNetwork(str(exc))
    if not np.isfinite(x).all():
        raise SingularNetwork("non-finite nodal solution")
    return x


def linear_scattering(net: ChainNetwork, omega: float) -> np.ndarray:
    """4x4 power-wave scattering matrix at omega (linearized junctions).

    Unitary to machine tolerance for a lossless chain; S[2, 0] is the
    Sigma transmission L -> R.
    """
    z = port_impedances(net, omega)
    e, rz = net.ops.e, np.sqrt(z)
    # Norton drive of unit incident wave on port p: I_N = 2 / sqrt(Z_p)
    v_nodes = _solve(admittance_matrix(net, omega, z), e * (2.0 / rz))
    v_ports = e.T @ v_nodes          # mode voltage at port q for drive p
    return v_ports / rz[:, None] - np.eye(4)


def scattering_sweep(net: ChainNetwork, omegas) -> np.ndarray:
    """linear_scattering at each of omegas, (nf, 4, 4), in O(nf) memory, by
    block Gaussian elimination of the columns from both loaded ends to the
    middle column m, vectorised over frequency (README, "Linear network").
    On its port drives E z^-1/2 each end carries the pivot S_k (the loaded
    part's input admittance: no pivoting), the transfer T_k of the drives
    onto column k and the LDL^T sum Z = sum_k<m T_k^T S_k^-1 T_k; then
    S = 2 (Z_L + Z_R + T_m^T S_mid^-1 T_m) - 1."""
    w = np.asarray(omegas, float)
    ops, ncol = net.ops, net.n_cells + 1
    mid = ncol // 2
    # (C, -Gamma) at (a, a), (b, b), (b, a), (a', a), (b', b) per column (a'
    # on the next) and direction, from band rows 2-4 in node order and
    # reversed: the 2 x 2 block entries are i (cg[k] @ (w, 1 / w))
    cg = np.stack([ops.c_band, -ops.gamma_band])
    cg = np.stack([cg[:, 2:], cg[:, 2::-1, ::-1]], -1)
    cg = cg.reshape(2, 3, ncol, 2, 2)[:, [0, 0, 1, 2, 2], :, [0, 1, 0, 0, 1]]
    cg = cg.transpose(2, 0, 3, 1).reshape(ncol, 10, 2)
    # t = E z^-1/2 (node, port, direction) on each end's ports: loads t t^T
    rz = np.sqrt(port_impedances(net, w).T).reshape(2, 2, -1).swapaxes(0, 1)
    t = np.stack([ops.e[:2, :2], ops.e[:-3:-1, 2:]], -1)[..., None] / rz
    c = [(t[i] * t[j]).sum(0) for i, j in ((0, 0), (0, 1), (1, 1))]
    zz = np.zeros_like(c, complex)      # Z entries 00, 01 and 11
    with np.errstate(all="ignore"):     # a zero pivot leaves S non-finite
        wv = np.stack([w, 1 / w])
        for k in range(mid):
            if k == mid - 1:    # the reversed state at m, on an even count
                back = t, c, zz.copy()
            da, db, m, ua, ub = (cg[k] @ wv).reshape(5, 2, -1)
            p, q, r = (1j * x + y for x, y in zip((da, m, db), c))
            f = 1 / (p * r - q * q)
            fp, fq, fr = f * p, f * q, f * r
            v = fr * t[0] - fq * t[1], fp * t[1] - fq * t[0]   # S^-1 T
            zz[:2] += t[0][0] * v[0] + t[1][0] * v[1]
            zz[2] += t[0][1] * v[0][1] + t[1][1] * v[1][1]
            t = -1j * ua * v[0], -1j * ub * v[1]
            c = ua * ua * fr, -ua * ub * fq, ub * ub * fp       # U S^-1 U
        # an even count leaves the reversed direction a column less to do;
        # it sees column m's a and b swapped
        t, c, zz = ([np.asarray(x)[..., 0, :], np.asarray(y)[..., 1, :]]
                    for x, y in zip((t, c, zz), back if ncol % 2 == 0 else
                                    (t, c, zz)))
        da, db, m = 1j * (cg[mid, 0:6:2] @ wv)
        p, q, r = (da + c[0][0] + c[1][2], m + c[0][1] + c[1][1],
                   db + c[0][2] + c[1][0])
        t = np.concatenate([t[0], t[1][::-1]], 1)   # (node, port, nf)
        v = np.array([r * t[0] - q * t[1], p * t[1] - q * t[0]]) \
            / (p * r - q * q)
        s = np.einsum("iqf,ipf->fqp", t, v)
        s[:, :2, :2] += zz[0][[0, 1, 1, 2]].T.reshape(-1, 2, 2)
        s[:, 2:, 2:] += zz[1][[0, 1, 1, 2]].T.reshape(-1, 2, 2)
        s *= 2
        s -= np.eye(4)
    if not np.isfinite(s).all():
        raise SingularNetwork("non-finite scattering matrix")
    return s


def drive_solution(net: ChainNetwork, port: int, omega: float) -> np.ndarray:
    """Node voltages for an incident wave of unit power-wave amplitude
    (1 sqrt(W)) on the given port."""
    z = port_impedances(net, omega)
    b = net.ops.e[:, port] * (2.0 / math.sqrt(z[port]))
    return _solve(admittance_matrix(net, omega, z), b)


def wave_amplitude_profile(net: ChainNetwork, port: int, omega: float):
    """Per-cell forward/backward traveling amplitudes of each mode.

    Decomposes the node solution of a unit drive into +/- traveling
    components using adjacent columns and the dispersion wavevector.
    Returns {mode: (forward, backward)} complex arrays of length n_cells.
    """
    v = drive_solution(net, port, omega)
    va, vb = v[0::2], v[1::2]
    out = {}
    for mode in Mode:
        vm = _S2 * (va + vb) if mode is Mode.Sigma else _S2 * (vb - va)
        k = wavevector(mode, omega, net.cell)
        if abs(math.sin(k)) < 1e-3:
            raise DecompositionIllConditioned(
                f"{mode.name}: |sin(ka)| = {abs(math.sin(k)):.2e} too small")
        n = np.arange(net.n_cells)
        det = 2j * math.sin(k)
        fwd = (vm[:-1] * np.exp(1j * k * (n + 1))
               - vm[1:] * np.exp(1j * k * n)) / det
        bwd = (vm[1:] * np.exp(-1j * k * n)
               - vm[:-1] * np.exp(-1j * k * (n + 1))) / det
        out[mode] = (fwd * np.exp(-1j * k * n), bwd * np.exp(1j * k * n))
    return out
