import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from twpc import device, network, sidebands
from twpc.cli import main
from twpc.device import PHI0_BAR
from twpc.dispersion import Mode, amplitude_from_flux, cutoff, pump_wavevector
from twpc.errors import SingularNetwork, TruncationWarning
from twpc.harmonic_balance import (HarmonicBasis, K_SAMPLES,
                                   pump_harmonic_balance)
from twpc.matching import ProcessKind, solve_corrected
from twpc.network import PARITY, linear_scattering, port_impedances
from twpc.sidebands import (_PumpedLinearizer, signal_sidebands,
                            transmission_map)

GHZ = 2e9 * math.pi
FLUX_Q = 2 * math.pi * PHI0_BAR


@pytest.fixture(scope="module")
def pumped(fitted_net):
    """Converged 3 GHz pump at 0.06 flux quanta, launched right-to-left."""
    w = 3 * GHZ
    kp = pump_wavevector(fitted_net.cell, w, 0.0)
    eps = amplitude_from_flux(0.06 * FLUX_Q, kp)
    return pump_harmonic_balance(fitted_net, w, eps, [3],
                                 HarmonicBasis(3)), eps


def _zero_pump(net):
    """The zero-amplitude 3 GHz pump from Delta-R, whose orbit is exactly
    phi = 0; no sideband of a 5.7 or 7.1 GHz probe falls at zero
    frequency."""
    return pump_harmonic_balance(net, 3 * GHZ, 0.0, [3], HarmonicBasis(3))


def test_zero_pump_reduces_to_linear(fitted_net):
    w = 5.7 * GHZ
    pump = _zero_pump(fitted_net)
    # cos 0 = 1 on every junction: the sidebands decouple
    np.testing.assert_array_equal(
        pump.junction_gamma(),
        np.tile(np.eye(1, K_SAMPLES), (len(fitted_net.ops.g), 1)))
    sc = signal_sidebands(pump, w, n_sidebands=2)
    np.testing.assert_allclose(sc.s0(), linear_scattering(fitted_net, w),
                               atol=1e-10)
    c = sc.n_sidebands
    off = sc.s.copy()
    off[c, :, c, :] = 0.0
    assert np.max(np.abs(off[:, :, c, :])) < 1e-12


def test_zero_pump_power_balance(fitted_net):
    sc = signal_sidebands(_zero_pump(fitted_net), 5.7 * GHZ, n_sidebands=1)
    c = sc.n_sidebands
    power = np.sum(np.abs(sc.s[:, :, c, 0]) ** 2)
    assert power == pytest.approx(1.0, abs=1e-8)


def test_circulation_dip_and_nonreciprocity(fitted_net, pumped):
    pump, eps = pumped
    pt = solve_corrected(ProcessKind.Circulation, pump.omega_p, eps,
                         fitted_net.cell)[0]
    sc = signal_sidebands(pump, pt.omega_s)
    s0 = sc.s0()
    fw = 20 * math.log10(abs(s0[2, 0]))
    bw = 20 * math.log10(abs(s0[0, 2]))
    assert fw < -10.0          # deep in-gap forward attenuation
    assert abs(bw) < 0.5       # backward direction untouched
    # off the gap the line is transparent again
    s_off = signal_sidebands(pump, pt.omega_s + 1.0 * GHZ).s0()
    assert 20 * math.log10(abs(s_off[2, 0])) > -0.5


def test_attenuated_power_leaves_as_backward_idler(fitted_net, pumped):
    pump, eps = pumped
    pt = solve_corrected(ProcessKind.Circulation, pump.omega_p, eps,
                         fitted_net.cell)[0]
    sc = signal_sidebands(pump, pt.omega_s)
    c = sc.n_sidebands
    # idler channel: sideband n = +1 (omega_S + 2 omega_P), left Sigma port
    idler = np.abs(sc.s[c + 1, 0, c, 0]) ** 2
    through = np.abs(sc.s[c, 2, c, 0]) ** 2
    assert idler > 0.5
    # each converted photon takes two pump photons with it, so photon
    # number, not power, is what the conversion conserves
    w_i = pt.omega_s + 2 * pump.omega_p
    assert idler * pt.omega_s / w_i + through == pytest.approx(1.0, abs=0.15)


def test_truncation_stability(fitted_net, pumped):
    pump, eps = pumped
    pt = solve_corrected(ProcessKind.Circulation, pump.omega_p, eps,
                         fitted_net.cell)[0]
    w = pt.omega_s + 0.2 * GHZ  # near, not in, the gap
    vals = []
    for ns in (2, 3):
        s0 = signal_sidebands(pump, w, n_sidebands=ns).s0()
        vals.append(20 * math.log10(abs(s0[2, 0])))
    assert abs(vals[1] - vals[0]) < 0.1


def test_commensurate_probe_rejected(fitted_net, pumped):
    pump, _ = pumped
    with pytest.raises(SingularNetwork):
        signal_sidebands(pump, 2 * pump.omega_p, n_sidebands=1)


def test_outermost_sideband_warning(fitted_net):
    w = 3 * GHZ
    kp = pump_wavevector(fitted_net.cell, w, 0.0)
    eps = amplitude_from_flux(0.08 * FLUX_Q, kp)
    pump = pump_harmonic_balance(fitted_net, w, eps, [3], HarmonicBasis(3))
    pt = solve_corrected(ProcessKind.Circulation, w, eps,
                         fitted_net.cell)[0]
    with pytest.warns(TruncationWarning):
        signal_sidebands(pump, pt.omega_s, n_sidebands=1)


def _db(s):
    """20 log10 |s| of map amplitudes."""
    return 20 * np.log10(np.abs(s))


def test_transmission_map_flat_without_pump(fitted_net):
    probes = np.array([5.0, 6.0, 7.0]) * GHZ
    w = 2.2 * GHZ
    pump = pump_harmonic_balance(fitted_net, w, 1e-6, [3], HarmonicBasis(3))
    fw, bw, failures = transmission_map(pump, probes)
    assert not failures
    np.testing.assert_allclose(_db(fw), 0.0, atol=1e-3)
    np.testing.assert_allclose(_db(bw), 0.0, atol=1e-3)


def test_transmission_map_shows_gap_and_records_failures(fitted_net):
    w = 3 * GHZ
    kp = pump_wavevector(fitted_net.cell, w, 0.0)
    eps = amplitude_from_flux(0.06 * FLUX_Q, kp)
    pt = solve_corrected(ProcessKind.Circulation, w, eps,
                         fitted_net.cell)[0]
    probes = np.array([pt.omega_s, pt.omega_s + GHZ, 2 * w])
    pump = pump_harmonic_balance(fitted_net, w, eps, [3], HarmonicBasis(3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        fw, bw, failures = transmission_map(pump, probes)
    fw, bw = _db(fw), _db(bw)
    assert fw[0] < -10 and fw[1] > -1
    assert np.all(np.abs(bw[:2]) < 0.5)
    # the probe colliding with an even pump harmonic is a recorded failure
    assert np.isnan(fw[2])
    assert any(j == 2 for j, _ in failures)


def test_amplification_ridge_with_bidirectional_pumps(fitted_net):
    """Counterpropagating pumps amplify a probe near the pump frequency."""
    w = 3 * GHZ
    kp = pump_wavevector(fitted_net.cell, w, 0.0)
    eps = amplitude_from_flux(0.06 * FLUX_Q, kp)
    pump = pump_harmonic_balance(fitted_net, w, eps, (1, 3), HarmonicBasis(3))
    near = signal_sidebands(pump, w + 0.03 * GHZ).s0()
    gain = 20 * math.log10(abs(near[2, 0]))
    assert gain > 1.0


def _reference_sidebands(net, pump, omega_probe, n_sb):
    """Signal S assembled block by block as sparse matrices and solved by
    splu: the reference for the banded conversion-matrix solve."""
    ops, n = net.ops, net.n_nodes
    eye = sp.identity(n, format="csr")
    dmat = eye[ops.left + 2] - eye[ops.left]
    omega_p, gamma = pump.omega_p, pump.junction_gamma()
    w = {}
    for q in range(0, 4 * n_sb + 1, 2):
        wq = PHI0_BAR * (dmat.T @ sp.diags(ops.g * gamma[:, q]) @ dmat)
        w[q], w[-q] = wq.tocsr(), wq.conj().tocsr()
    ns = np.arange(-n_sb, n_sb + 1)
    nb = len(ns)
    freqs = omega_probe + 2.0 * ns * omega_p
    z = np.array([port_impedances(net, abs(f)) for f in freqs])
    blocks = [[w[2 * (ns[i] - ns[j])] for j in range(nb)] for i in range(nb)]
    rhs = np.zeros((nb * n, nb * 4), complex)
    for i, f in enumerate(freqs):
        blocks[i][i] = blocks[i][i] + sp.dia_matrix(
            (ops.admittance([f], [z[i]], False)[..., 0] * (1j * f * PHI0_BAR),
             range(2, -3, -1)), shape=(n, n))
        rhs[i * n:(i + 1) * n, 4 * i:4 * i + 4] = ops.e * 2.0 / np.sqrt(z[i])
    sol = spla.splu(sp.bmat(blocks).tocsc()).solve(rhs)
    s = np.zeros((nb, 4, nb, 4), complex)
    for i, f in enumerate(freqs):
        v_ports = ops.e.T @ (1j * f * PHI0_BAR * sol[i * n:(i + 1) * n])
        s[i] = (v_ports / np.sqrt(z[i])[:, None]).reshape(4, nb, 4)
    return s - np.eye(4 * nb).reshape(nb, 4, nb, 4)


@pytest.fixture(scope="module")
def oracle_pumps(fitted_spec, fitted_net, defect_net):
    """3 GHz pump at 0.05 flux quanta from the right Delta port on the
    fitted line, the line with an open junction, and lines with 5 % and
    2 % ("disorder2") junction disorder; and on the fitted line from
    both Delta ports ("coupler"), the left Sigma port ("sigma"), and the
    left Sigma and right Delta ports ("mixed"): (pump, epsilon) per
    name."""
    disorder_net = network.build_chain(dataclasses.replace(
        fitted_spec, disorder_halfwidth=0.05, seed=7))
    disorder2_net = network.build_chain(dataclasses.replace(
        fitted_spec, disorder_halfwidth=0.02, seed=11))
    w = 3 * GHZ
    eps = amplitude_from_flux(0.05 * FLUX_Q,
                              pump_wavevector(fitted_net.cell, w, 0.0))
    out = {}
    for name, net, ports in (
            ("fitted", fitted_net, (3,)), ("defect", defect_net, (3,)),
            ("disorder", disorder_net, (3,)),
            ("disorder2", disorder2_net, (3,)),
            ("coupler", fitted_net, (1, 3)), ("sigma", fitted_net, (0,)),
            ("mixed", fitted_net, (0, 3))):
        out[name] = pump_harmonic_balance(net, w, eps, ports,
                                          HarmonicBasis(3)), eps
    return out


@pytest.mark.parametrize("line, probe_ghz, n_sb, pumped", [
    ("fitted", 5.7, 2, False),      # zero pump
    ("fitted", "gap", 2, True),     # Ci gap probe
    ("fitted", 5.3, 2, True),       # +1 sideband above the Delta cutoff
    ("fitted", 7.1, 1, True),
    ("fitted", 7.1, 2, True),
    ("fitted", 7.1, 3, True),
    ("defect", 7.1, 2, True),
    ("disorder", 7.1, 2, True),
    ("coupler", 7.1, 2, True),      # both Delta ports pumped
    ("sigma", 7.1, 2, True),        # Sigma-L pump
    ("mixed", 7.1, 2, True),        # Sigma-L + Delta-R: the node basis
    ("fitted", "sigma_cutoff", 2, True),
    ("fitted", 40.0, 2, True),      # every sideband above both cutoffs
])
def test_banded_sidebands_match_sparse_oracle(oracle_pumps, line, probe_ghz,
                                              n_sb, pumped):
    pump, eps = oracle_pumps[line]
    net = pump.net
    w = _probe(pump, eps, probe_ghz)
    if not pumped:
        pump = _zero_pump(net)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        sc = signal_sidebands(pump, w, n_sidebands=n_sb)
    if probe_ghz == 5.3:
        assert not sc.propagating[n_sb + 1, 1]
    if probe_ghz == 40.0:
        assert not sc.propagating.any()
    if probe_ghz == "sigma_cutoff":
        assert sc.propagating[n_sb, 0]
    ref = _reference_sidebands(net, pump, w, n_sb)
    assert np.max(np.abs(sc.s - ref)) <= 1e-10


@pytest.mark.parametrize("line, signs", [
    ("fitted", [1, -1]), ("coupler", [1, -1]), ("disorder", [None])])
def test_linearizer_gamma_rows_match_full_gamma(oracle_pumps, line, signs):
    """The linearizer computes cos(delta) only on the branches its sectors
    read (the b-electrode ones in a parity sector, all in the node basis),
    and its pump bands equal those built from the rows of the full
    junction_gamma() bit for bit."""
    pump, _ = oracle_pumps[line]
    full = pump.junction_gamma()
    lin = _PumpedLinearizer(pump, list(np.ndindex(5, 4)))
    assert list(lin.sectors) == signs
    q = np.subtract.outer(lin.harmonics, lin.harmonics) % K_SAMPLES
    for band, ops, *_ in lin.sectors.values():
        rows = pump.junction_gamma(ops.branches)
        assert rows.shape == (len(ops.branches), K_SAMPLES)
        assert np.array_equal(rows, full[ops.branches])
        assert np.array_equal(band, network.conversion_band(
            ops, full[ops.branches][:, q]))


# pumps that oracle_pumps does not hold: (ports, f_p in GHz, flux quanta)
_MANLEY_ROWE_DRIVES = {"coupler": ((1, 3), 3.5, 0.03),
                       "copropagating": ((1,), 5.0, 0.12)}


@pytest.mark.parametrize("line", ["fitted", "coupler", "copropagating",
                                  "disorder2", "defect"])
def test_sidebands_conserve_photon_number(oracle_pumps, fitted_net, line):
    """Manley-Rowe: the lossless pumped line moves photons between the
    sidebands but makes or loses none.  A unit wave incident on channel j
    gives sum_i |S_ij|^2 omega_j / omega_i = 1 over all outgoing channels,
    with signed sideband frequencies: a conjugate (negative-frequency)
    channel counts its photons negatively.  Besides 7 probes across the
    band, three put the outermost upper sideband (probe + 4 f_p) just
    below, 1 % below and 1 % above the Sigma cutoff."""
    if line in _MANLEY_ROWE_DRIVES:
        ports, f_ghz, flux = _MANLEY_ROWE_DRIVES[line]
        w = f_ghz * GHZ
        eps = amplitude_from_flux(flux * FLUX_Q,
                                  pump_wavevector(fitted_net.cell, w, 0.0))
        pump = pump_harmonic_balance(fitted_net, w, eps, ports,
                                     HarmonicBasis(3))
    else:
        pump, _ = oracle_pumps[line]
    top = cutoff(Mode.Sigma, pump.net.cell)
    probes = [*np.linspace(4.05, 10.05, 7) * GHZ,
              *(r * top - 4 * pump.omega_p for r in (1 - 1e-6, 0.99, 1.01))]
    for w in probes:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            sc = signal_sidebands(pump, w)
        ratio = sc.freqs / sc.freqs[:, None]       # [i, j] = omega_j/omega_i
        photons = np.einsum("iqjp,ij->jp", np.abs(sc.s) ** 2, ratio)
        assert np.max(np.abs(photons - 1.0)) <= 1e-10


def _probe(pump, eps, probe_ghz):
    """Probe frequency: the Ci gap center, 1e-6 below the Sigma cutoff, or
    probe_ghz GHz."""
    if probe_ghz == "gap":
        return solve_corrected(ProcessKind.Circulation, pump.omega_p, eps,
                               pump.net.cell)[0].omega_s
    if probe_ghz == "sigma_cutoff":
        return cutoff(Mode.Sigma, pump.net.cell) * (1 - 1e-6)
    return probe_ghz * GHZ


@pytest.mark.parametrize("line, probe_ghz, n_sb", [
    ("fitted", "gap", 2),       # Ci gap probe
    ("fitted", 5.3, 2),         # +1 sideband above the Delta cutoff
    ("fitted", 7.1, 1),
    ("fitted", 7.1, 2),
    ("fitted", 7.1, 3),
    ("defect", 7.1, 2),
    ("disorder", 7.1, 2),
])
def test_transmission_map_cells_match_full_scattering(oracle_pumps, line,
                                                      probe_ghz, n_sb):
    """The map's two probe columns agree with the full sideband solve."""
    pump, eps = oracle_pumps[line]
    w = _probe(pump, eps, probe_ghz)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        fw, bw, failures = transmission_map(pump, [w], n_sidebands=n_sb)
        s0 = signal_sidebands(pump, w, n_sidebands=n_sb).s0()
    assert not failures
    fw, bw = _db(fw), _db(bw)
    assert abs(fw[0] - 20 * math.log10(abs(s0[2, 0]))) <= 1e-12
    assert abs(bw[0] - 20 * math.log10(abs(s0[0, 2]))) <= 1e-12


@pytest.mark.parametrize("n_sb", [1, 2, 3])
def test_sideband_solves_take_only_the_columns_read(oracle_pumps,
                                                    monkeypatch, n_sb):
    """Each probe solves only the columns its caller reads: on the fitted
    line in the sector band of their ports (a map cell's two Sigma columns
    in the even sector, all 4 nb columns as 2 nb per sector), on the
    disordered line in the node band."""
    calls = []

    def recorder(l_and_u, ab, b, *args, **kwargs):
        calls.append((l_and_u[0], np.shape(b)))
        return solve_banded(l_and_u, ab, b, *args, **kwargs)

    monkeypatch.setattr("scipy.linalg.solve_banded", recorder)
    nb = 2 * n_sb + 1
    probes = np.array([6.5, 7.1, 9.0]) * GHZ
    # the sideband band's kl (HB's is 17) and the columns of each solve of
    # the full sideband scattering
    for line, kl, full in (("fitted", 2 * nb - 1, [2 * nb] * 2),
                           ("disorder", 3 * nb - 1, [4 * nb])):
        pump, _ = oracle_pumps[line]
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            transmission_map(pump, probes, n_sidebands=n_sb)
            assert [shape[1] for k, shape in calls if k == kl] == [2] * 3
            calls.clear()
            signal_sidebands(pump, probes[0], n_sidebands=n_sb)
        assert [s[1] for _, s in calls] == full
        assert {k for k, _ in calls} == {kl}


def test_sector_band_only_where_electrodes_swap(oracle_pumps, fitted_net,
                                                monkeypatch):
    """The electrode-parity sector band, (4 nb - 1, nb (n_cells + 1)), is
    solved on the fitted line pumped from Delta-R, both Delta ports, Sigma-L
    or at zero amplitude, where a Sigma probe's Delta outputs are exactly 0;
    the node band, (6 nb - 1, nb n_nodes), on the defect and disordered lines,
    under the mixed Sigma-L + Delta-R pump and on the fitted line with one
    junction moved by one ulp."""
    shapes = []

    def recorder(l_and_u, ab, b, *args, **kwargs):
        shapes.append(np.shape(ab))
        return solve_banded(l_and_u, ab, b, *args, **kwargs)

    monkeypatch.setattr("scipy.linalg.solve_banded", recorder)
    nb, n = 5, fitted_net.n_cells + 1
    sector, node = (4 * nb - 1, nb * n), (6 * nb - 1, 2 * nb * n)
    l_table = fitted_net.l_table.copy()
    l_table[200, 1] = np.nextafter(l_table[200, 1], np.inf)
    nudged = dataclasses.replace(fitted_net, l_table=l_table)
    cases = [(oracle_pumps[k][0], sector)
             for k in ("fitted", "coupler", "sigma")]
    cases += [(_zero_pump(fitted_net), sector), (_zero_pump(nudged), node)]
    cases += [(oracle_pumps[k][0], node)
              for k in ("defect", "disorder", "mixed")]
    for pump, shape in cases:
        shapes.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            s = _PumpedLinearizer(pump, [(2, 0), (2, 2)]).solve(
                7.1 * GHZ)[1]
        assert shapes == [shape]
        if shape == sector:
            assert not s[:, [1, 3]].any()


@pytest.mark.parametrize("ports, line, blocks", [
    ((3,), {}, (19, 2005)),             # the even sector only
    ((1, 3), {}, (19, 2005)),
    ((3,), {"defects": ((165, "open_junction"),)}, (29, 4010)),
    ((3,), {"disorder_halfwidth": 0.02, "seed": 11}, (29, 4010))])
def test_map_builds_one_pump_band_per_row(tmp_path, monkeypatch, ports,
                                          line, blocks):
    """nld-map reads only the Sigma probe columns, so each pump row builds
    one pump band: the even sector's on the fitted line pumped from Delta
    ports, the node band on lines without electrode symmetry.  blocks is
    the band's shape, (2 (w + 1) nb - 1, n nb) for nb = 5 channels."""
    built = []
    band = sidebands.conversion_band

    def recorder(ops, coupling):
        b = band(ops, coupling)
        built.append(b.shape)
        return b

    monkeypatch.setattr(sidebands, "conversion_band", recorder)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(device.spec_to_json(device.fitted_line(
        **line))))
    assert main(["nld-map", "--pump-points", "2", "--probe-points", "2",
                 "--pump-flux", "0.05", "--pump-ports", *map(str, ports),
                 "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
    assert built == [blocks] * 2


def test_transmission_map_warns_on_truncation(oracle_pumps):
    pump, eps = oracle_pumps["fitted"]
    with pytest.warns(TruncationWarning):
        transmission_map(pump, [_probe(pump, eps, "gap")], n_sidebands=1)


def test_probes_rewrite_only_the_load_rows(pumped, oracle_pumps):
    """Each probe writes the kept pump part of its channel-load rows plus
    its loads into each sector's band: probes leave the other rows of the
    bands and the kept pump rows as they were and repeat bit for bit, on
    the fitted line (two sectors) and on the disordered one (the node
    basis)."""
    channels = [(2, 0), (2, 2), (2, 3)]
    for pump, n_sectors in ((pumped[0], 2), (oracle_pumps["disorder"][0], 1)):
        lin = _PumpedLinearizer(pump, channels)
        kept = [[x.copy() for x in (band, rows)]
                for band, _, rows, _ in lin.sectors.values()]
        assert len(kept) == n_sectors
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            first = lin.solve(7.1 * GHZ)[1]
            lin.solve(9.0 * GHZ)
            for (band, rows), (now, ops, now_rows, _) in zip(
                    kept, lin.sectors.values()):
                assert np.array_equal(now_rows, rows)
                nb, ku = rows.shape[-1], (len(band) - 1) // 2
                other = np.setdiff1d(range(len(band)), range(
                    ku - ops.w * nb, ku + ops.w * nb + 1, nb))
                assert np.array_equal(now[other], band[other])
            again = lin.solve(7.1 * GHZ)[1]
        assert np.array_equal(again, first)


def _rebuilt_band_probe(lin, bands, omega_probe, channels):
    """lin.solve on a band rebuilt whole for the probe: a fresh copy of
    each sector's pump band as built (bands), its channel loads added to
    its channel-load rows, solved by solve_banded with its finite check,
    outputs contracted over every unknown; the reference for the
    refreshed load rows."""
    freqs = omega_probe + lin.harmonics * lin.omega_p
    z = np.array([port_impedances(lin.net, abs(w)) for w in freqs])
    channels = np.array(channels)
    nb = len(freqs)
    s = np.zeros((nb, 4, len(channels)), complex)
    for sign, (_, ops, *_) in lin.sectors.items():
        cols = [j for j, (_, p) in enumerate(channels)
                if sign in (None, PARITY[p])]
        ab = bands[sign].copy()
        ku, w = (len(ab) - 1) // 2, ops.w
        ab.reshape(len(ab), -1, nb)[ku - w * nb:ku + w * nb + 1:nb] += \
            ops.admittance(freqs, z, inductive=False) \
            * (1j * PHI0_BAR * freqs)
        e = ops.e
        i, p = channels[cols].T
        rhs = np.zeros((len(e), nb, len(cols)))
        rhs[:, i, range(len(cols))] = e[:, p] * (2.0 / np.sqrt(z[i, p]))
        sol = solve_banded((ku, ku), ab, rhs.reshape(-1, len(cols)))
        s[:, :, cols] = np.einsum(
            "kq,kij->iqj", e, sol.reshape(rhs.shape), optimize=True) \
            * (1j * PHI0_BAR * freqs)[:, None, None] / np.sqrt(z)[:, :, None]
    i, p = channels.T
    s[i, p, np.arange(len(channels))] -= 1.0
    return freqs, s


@pytest.mark.parametrize("line", ["fitted", "coupler", "sigma", "disorder2",
                                  "defect"])
def test_refreshed_load_rows_match_rebuilt_band(oracle_pumps, line):
    """One linearizer per channel list (the map's two columns, every
    channel, a Sigma/Delta mix), each in the sectors its channels use,
    through probes that alternate the lists, so that each band is reused
    and has only its load rows rewritten: every output equals the
    rebuilt-band reference bit for bit in the parity sectors, and to
    1e-12 of each column's largest entry on the nodes, where the outputs
    are contracted over the port unknowns only (a different summation
    order)."""
    pump, _ = oracle_pumps[line]
    nodes = line in ("disorder2", "defect")
    lins = {}
    for name, channels, signs in (
            ("cols", [(2, 0), (2, 2)], [1]),
            ("every", list(np.ndindex(5, 4)), [1, -1]),
            ("mix", [(1, 1), (2, 0), (2, 3), (4, 2)], [1, -1])):
        lin = _PumpedLinearizer(pump, channels)
        assert list(lin.sectors) == ([None] if nodes else signs)
        lins[name] = lin, channels, {sign: sector[0].copy()
                                     for sign, sector in lin.sectors.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for f, name in ((7.1, "cols"), (9.0, "cols"), (5.3, "every"),
                        (7.1, "cols"), (6.4, "mix"), (11.0, "every"),
                        (4.2, "cols"), (3.3, "mix")):
            lin, channels, bands = lins[name]
            freqs, s = lin.solve(f * GHZ)
            ref_freqs, ref = _rebuilt_band_probe(lin, bands, f * GHZ,
                                                 channels)
            assert np.array_equal(freqs, ref_freqs)
            if nodes:
                scale = np.abs(ref).max(axis=(0, 1))
                assert np.all(np.abs(s - ref).max(axis=(0, 1))
                              <= 1e-12 * scale)
            else:
                assert np.array_equal(s, ref)


def test_map_row_takes_its_sideband_impedances_in_one_call(oracle_pumps,
                                                           monkeypatch):
    calls = []

    def recorder(net, omega):
        calls.append(np.shape(omega))
        return port_impedances(net, omega)

    monkeypatch.setattr(sidebands, "port_impedances", recorder)
    pump, _ = oracle_pumps["fitted"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        transmission_map(pump, np.array([6.5, 7.1, 9.0]) * GHZ)
    assert calls == [(3 * 5,)]      # 3 probes x 5 sidebands


def _nonfinite_pump_band(monkeypatch):
    """Make the pump band of every linearizer hold an inf on its diagonal,
    where LAPACK would return a finite, wrong solution."""
    band = sidebands.conversion_band

    def poisoned(ops, coupling):
        ab = band(ops, coupling)
        ab[len(ab) // 2, 7] = np.inf
        return ab
    monkeypatch.setattr(sidebands, "conversion_band", poisoned)


@pytest.mark.parametrize("bad", ["nan", "zero", "inf", "pump_band"])
def test_non_finite_inputs_fail_loudly(oracle_pumps, monkeypatch, tmp_path,
                                       capsys, bad):
    """A NaN, zero or infinite sideband port impedance, or a non-finite
    pump band, ends as SingularNetwork, never as a finite S: a probe
    raises, a map leaves its cells blank and says why, nld-sim exits 3
    with its JSON report."""
    if bad == "pump_band":
        _nonfinite_pump_band(monkeypatch)
    else:
        z = {"nan": math.nan, "zero": 0.0, "inf": math.inf}[bad]
        monkeypatch.setattr(sidebands, "port_impedances",
                            lambda net, omega: np.full(np.shape(omega) + (4,),
                                                       z))
    pump, eps = oracle_pumps["fitted"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # nor any numpy warning
        with pytest.raises(SingularNetwork):
            _PumpedLinearizer(pump, [(2, 0), (2, 2)]).solve(
                7.1 * GHZ)
    common = ["--f-pump", "3", "--pump-flux", "0.02", "--harmonics", "2",
              "--n-sidebands", "1"]
    assert main(["nld-sim", "--f-probe", "7.1", "--out-dir",
                 str(tmp_path / "sim")] + common) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SingularNetwork" and err["message"]
    assert not (tmp_path / "sim" / "scattering_summary.json").exists()
    out = tmp_path / "map"
    assert main(["nld-map", "--pump-min", "3", "--pump-max", "3",
                 "--pump-points", "1", "--probe-min", "5", "--probe-max",
                 "7.1", "--probe-points", "2", "--pump-flux", "0.02",
                 "--harmonics", "2", "--n-sidebands", "1", "--out-dir",
                 str(out)]) == 0
    rows = (out / "transmission_map.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",,") for row in rows)
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    probes = [None] if bad == "pump_band" else [5.0, 7.1]
    assert [f["f_probe_GHz"] for f in failures] == probes
    assert all(f["reason"] for f in failures)


def test_overflowing_channel_loads_fail_loudly(oracle_pumps, tmp_path,
                                               capsys):
    """Loads that overflow to inf at an absurd probe frequency, with
    finite impedances, are caught in the rows a probe writes."""
    pump, _ = oracle_pumps["fitted"]
    with pytest.raises(SingularNetwork, match="channel loads"), \
            np.errstate(over="ignore"):
        _PumpedLinearizer(pump, [(2, 0), (2, 2)]).solve(1e300)
    assert main(["nld-sim", "--f-pump", "3", "--f-probe", "1e290",
                 "--pump-flux", "0.02", "--harmonics", "2",
                 "--n-sidebands", "1", "--out-dir", str(tmp_path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "SingularNetwork"
