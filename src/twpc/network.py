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
import scipy.sparse as sp
from scipy.linalg import LinAlgError, solve_banded

from .device import PHI0_BAR, CellParams, DerivedConstants, LineSpec, \
    derive_constants, sample_disorder, validate
from .dispersion import Mode, wavevector
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
    consts: DerivedConstants

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
    validate(spec)
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
    consts = derive_constants(spec.cell)
    return ChainNetwork(spec.cell, spec.n_cells, table, port_z, consts)


def _stamp_branches(ab, left, val, w=2):
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
        c_band[1] = wt * (cell.c_g + (1 - sign) * cell.c_i)
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
    c = cell.c_g if mode is Mode.Sigma else cell.c_g + 2.0 * cell.c_i
    y_se = 1.0 / (1j * omega * cell.l_j) + 1j * omega * cell.c_j
    y_sh = 0.5j * omega * c
    if y_se == 0:       # at the plasma frequency: the limit 1 / y_sh
        return 1.0 / y_sh
    z_se = 1.0 / y_se
    return cmath.sqrt(z_se / (y_sh * (2.0 + z_se * y_sh)))


def port_impedances(net: ChainNetwork, omega) -> np.ndarray:
    """Reference impedance of each port at omega (always real): (4,), or
    (len(omega), 4) for a 1-d array omega, one row per frequency in the
    same scalar arithmetic."""
    if np.ndim(omega):
        return np.array([_port_row(net, w) for w in omega]).reshape(-1, 4)
    return np.array(_port_row(net, omega))


def _port_row(net: ChainNetwork, omega: float) -> tuple:
    if isinstance(net.port_z, tuple):
        return net.port_z
    if net.port_z == "lowfreq":
        z = (net.consts.z_sigma, net.consts.z_delta)
    else:  # bloch, falling back to the low-frequency value above cutoff
        z = []
        for mode, zl in ((Mode.Sigma, net.consts.z_sigma),
                         (Mode.Delta, net.consts.z_delta)):
            zb = bloch_impedance(mode, omega, net.cell)
            z.append(zb.real if abs(zb.imag) < 1e-9 * abs(zb) else zl)
    return z[0], z[1], z[0], z[1]


# ---------------------------------------------------------------------------
# Y(omega) = i omega C + Gamma/(i omega) + G_loads, in band storage

def admittance_matrix(net: ChainNetwork, omega: float, z,
                      inductive: bool = True) -> np.ndarray:
    """Band storage (kl = ku = 2) of the nodal admittance at omega with
    port reference impedances z (see ChainOperators.admittance)."""
    return net.ops.admittance([omega], [z], inductive)[..., 0]


def conversion_blocks(ops: ChainOperators, coupling: np.ndarray) -> np.ndarray:
    """Node band (as ChainOperators.admittance) of nb x nb channel blocks
    (2 w + 1, n, nb, nb) of the chain linearized about a pump orbit:
    channel c' drives c through phi0 D^T diag(g coupling[:, c, c']) D, with
    coupling (branches of ops, nb, nb) from the Fourier coefficients of
    cos(delta(t)) per junction.  In a sector the two electrodes' halves
    add up to one whole stamp (current weight times drop scale is 1)."""
    blocks = np.zeros((2 * ops.w + 1, len(ops.e)) + coupling.shape[1:],
                      coupling.dtype)
    _stamp_branches(blocks, ops.left,
                    PHI0_BAR * ops.g[:, None, None] * coupling, ops.w)
    return blocks


def channel_band(blocks: np.ndarray, out=None) -> np.ndarray:
    """LAPACK band storage (kl = ku = (w + 1) nb - 1, index node * nb + c)
    of the matrix held as channel blocks (2 w + 1, n, nb, nb) in node band
    storage of node bandwidth w: 2 on the n_nodes of the node basis
    (3 nb - 1), 1 on the n_cells + 1 columns of a sector (2 nb - 1).
    Written into out when given."""
    rows, n, nb, _ = blocks.shape
    # node band row r holds node offset r - w, i.e. offset (r - w) nb + c - c'
    w = rows // 2
    ku = (w + 1) * nb - 1
    r, c, c2 = np.ogrid[:rows, :nb, :nb]
    if out is None:
        out = np.empty((2 * ku + 1, n * nb), blocks.dtype)
    out.fill(0)
    out.reshape(2 * ku + 1, n, nb)[ku + (r - w) * nb + c - c2, :, c2] = \
        np.moveaxis(blocks, 1, -1)
    return out


def add_channel_loads(rows: np.ndarray, ops: ChainOperators, omegas, z,
                      out: np.ndarray) -> np.ndarray:
    """Write rows, the pump part (2 w + 1, n, nb) of the channels' diagonal
    blocks on the unknowns of ops, plus i omega_c phi0 Y_c without the
    junction inductances, at the signed frequency omegas[c] with port
    impedances z[c], into the 2 w + 1 band rows of out, a channel band,
    that hold those blocks; its other rows stay as they are.  Returns the
    rows written, as a view (2 w + 1, n, nb) of out."""
    nb, ku = len(z), (len(out) - 1) // 2
    loads = ops.admittance(omegas, z, inductive=False)
    loads *= 1j * PHI0_BAR * np.asarray(omegas)
    return np.add(rows, loads, out=out.reshape(len(out), -1, nb)[
        ku - ops.w * nb:ku + ops.w * nb + 1:nb])


def band_to_sparse(ab: np.ndarray) -> sp.csr_matrix:
    """The matrix held in LAPACK band storage ab with kl = ku = w,
    ab[w + i - j, j] = A[i, j], as a sparse matrix."""
    w, n = len(ab) // 2, ab.shape[1]
    return sp.dia_matrix((ab, range(w, -w - 1, -1)), shape=(n, n)).tocsr()


def _solve(ab, b, check_finite=True):
    """Banded LU with partial pivoting of ab (kl = ku), which stays as it
    is (scipy's overwrite_ab=False contract).  check_finite=False leaves
    the check for non-finite entries of ab and b to the caller, as the
    sideband probes do (see sidebands._PumpedLinearizer): LAPACK may
    return a finite, wrong solution for a band that holds an inf."""
    kl = (ab.shape[0] - 1) // 2
    try:
        x = solve_banded((kl, kl), ab, b, overwrite_ab=False,
                         check_finite=check_finite)
    except (LinAlgError, ValueError) as exc:   # singular or non-finite
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
    Gaussian elimination (Golub & Van Loan, sec. 4.5) of the 2 x 2 column
    blocks from both loaded ends, vectorised over frequency.  The pivot
    S = [[p, q], [q, r]] is the loaded part's input admittance: no pivoting."""
    w = np.asarray(omegas, float)
    z = port_impedances(net, w).T                             # (4, nf)
    ops, n = net.ops, net.n_nodes
    # C, Gamma band rows 2-4, node order and reversed: i (w C - Gamma / w)
    cg = np.stack([ops.c_band, ops.gamma_band])
    cg = np.stack([cg[:, 2:], cg[:, 2::-1, ::-1]], -1)[..., None]
    e = np.stack([ops.e, ops.e[::-1]], -1)[..., None]       # (n, 4, 2, 1)
    p, q, r, ua, ub = 1.0, 0.0, 1.0, 0.0, 0.0   # U = i diag(ua, ub)
    with np.errstate(all="ignore"):     # a zero pivot leaves S non-finite
        for k in range(0, n, 2):
            f = 1 / (p * r - q * q)
            (da, db), (m, _), u = cg[0, :, k:k + 2] * w - cg[1, :, k:k + 2] / w
            # t: the start column's drives carried here, -U S^-1 each step
            t = (-1j * ua * f * (r * t[0] - q * t[1]), -1j * ub * f * (
                p * t[1] - q * t[0])) if k else np.eye(2)[..., None, None]
            p, q, r = (1j * da + ua * ua * r * f, 1j * m - ua * ub * q * f,
                       1j * db + ub * ub * p * f)
            if k in (0, n - 2):     # an end column: port loads and drives
                y = (e[k:k + 2, None] * e[k:k + 2] / z[:, None]).sum(2)
                p, q, r = p + y[0, 0], q + y[0, 1], r + y[1, 1]
                x = e[k:k + 2] * (2 / np.sqrt(z[:, None]))  # (2, 4, 2, nf)
                x0 = x if k == 0 else x0
            ua, ub = u
        x = x + np.einsum("ijdf,jpdf->ipdf", np.array(t), x0)
        v = np.array([r * x[0] - q * x[1], p * x[1] - q * x[0]])
        # mode voltage at port q for drive p: the far end of each direction
        s = np.einsum("iqd,ipdf->fqp", e[-2:, ..., 0], v / (p * r - q * q)) \
            / np.sqrt(z.T)[:, :, None] - np.eye(4)
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
