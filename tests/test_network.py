import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from twpc import device, network
from twpc.dispersion import Mode, cutoff, wavevector
from twpc.errors import (ConfigError, DecompositionIllConditioned,
                         SingularNetwork)
from twpc.network import (bloch_impedance, build_chain, linear_scattering,
                          port_impedances, scattering_sweep,
                          wave_amplitude_profile)

GHZ = 2e9 * math.pi


def test_uniform_line_transparent(fitted_net):
    s = linear_scattering(fitted_net, 5 * GHZ)
    assert abs(s[2, 0]) == pytest.approx(1.0, abs=1e-6)
    assert abs(s[3, 1]) == pytest.approx(1.0, abs=1e-6)
    # translation-invariant symmetric line cannot mix the modes
    mixing = [abs(s[i, j]) for i in (0, 2) for j in (1, 3)]
    assert max(mixing) < 1e-8
    assert abs(s[0, 0]) < 1e-6 and abs(s[1, 1]) < 1e-6


@pytest.mark.parametrize("f_ghz", [1.0, 5.0, 8.5])
def test_unitarity_and_reciprocity(fitted_net, f_ghz):
    s = linear_scattering(fitted_net, f_ghz * GHZ)
    np.testing.assert_allclose(s.conj().T @ s, np.eye(4), atol=1e-8)
    np.testing.assert_allclose(s, s.T, atol=1e-8)


def test_transmission_phase_matches_dispersion(fitted_net):
    spec = device.fitted_line()
    for f in (2.0, 5.0, 8.0):
        w = f * GHZ
        s = linear_scattering(fitted_net, w)
        k = wavevector(Mode.Sigma, w, spec.cell)
        phase = -np.angle(s[2, 0])
        expect = (spec.n_cells * k) % (2 * math.pi)
        err = (phase - expect + math.pi) % (2 * math.pi) - math.pi
        assert abs(err) < 1e-4 * spec.n_cells


def test_bloch_impedance_low_frequency_limit(fitted_net):
    cell = c = device.fitted_cell()
    z = bloch_impedance(Mode.Sigma, 0.05 * GHZ, cell)
    assert z.real == pytest.approx(c.z_sigma, rel=1e-3)
    z = bloch_impedance(Mode.Delta, 0.05 * GHZ, cell)
    assert z.real == pytest.approx(c.z_delta, rel=1e-3)
    # at omega = 0 itself the limit, the value the ports take there
    z0 = port_impedances(fitted_net, 0.0)
    assert bloch_impedance(Mode.Sigma, 0.0, cell) == z0[0]
    assert bloch_impedance(Mode.Delta, 0.0, cell) == z0[1]


def test_bloch_impedance_at_plasma_frequency(fitted_net):
    # the series branch is open: the image impedance tends to 1 / y_sh,
    # which is not real, so the ports fall back to the low-frequency values
    cell = c = fitted_net.cell
    assert 1 / (1j * cell.plasma_omega * cell.l_j) \
        + 1j * cell.plasma_omega * cell.c_j == 0
    z = bloch_impedance(Mode.Sigma, cell.plasma_omega, cell)
    assert z == pytest.approx(1 / (0.5j * cell.plasma_omega * cell.c_g))
    np.testing.assert_array_equal(
        port_impedances(fitted_net, cell.plasma_omega),
        [c.z_sigma, c.z_delta, c.z_sigma, c.z_delta])


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.name)
def test_bloch_impedance_at_cutoff(fitted_net, mode):
    # 2 + z_se y_sh rounds to 0 at the cutoff itself: the image impedance
    # takes its limit there, infinite, and that mode's ports keep their
    # low-frequency value
    cell = c = fitted_net.cell
    w = cutoff(mode, cell)
    z = bloch_impedance(mode, w, cell)
    assert math.isinf(z.real) and z.imag == 0
    low = c.z_sigma if mode is Mode.Sigma else c.z_delta
    ports = [0, 2] if mode is Mode.Sigma else [1, 3]
    np.testing.assert_array_equal(port_impedances(fitted_net, w)[ports],
                                  [low, low])


def test_defect_scattering_fractions(defect_net):
    s = linear_scattering(defect_net, 5 * GHZ)
    p = np.abs(s) ** 2
    # drive the left Sigma port: mostly transmitted, strong leak to Delta
    assert p[2, 0] == pytest.approx(0.60, abs=0.10)
    assert p[0, 0] == pytest.approx(0.05, abs=0.10)
    assert p[1, 0] == pytest.approx(0.20, abs=0.10)
    assert p[3, 0] == pytest.approx(0.20, abs=0.10)
    # drive the left Delta port: mostly reflected
    assert p[1, 1] == pytest.approx(0.60, abs=0.10)
    assert p[3, 1] == pytest.approx(0.05, abs=0.10)
    # still lossless
    np.testing.assert_allclose(s.conj().T @ s, np.eye(4), atol=1e-8)


def test_uniform_wave_profile_flat(fitted_net):
    prof = wave_amplitude_profile(fitted_net, 0, 5 * GHZ)
    fwd, bwd = prof[Mode.Sigma]
    np.testing.assert_allclose(np.abs(fwd), np.abs(fwd[0]), rtol=1e-6)
    assert np.max(np.abs(bwd)) < 1e-6 * np.abs(fwd[0])
    fwd_d, bwd_d = prof[Mode.Delta]
    assert np.max(np.abs(fwd_d)) < 1e-8 * np.abs(fwd[0])


def test_defect_wave_profile_steps_at_defect(defect_net):
    w = 5 * GHZ
    prof = wave_amplitude_profile(defect_net, 0, w)
    s = linear_scattering(defect_net, w)
    fwd, bwd = prof[Mode.Sigma]
    left_in = np.abs(fwd[:150]).mean()
    right_out = np.abs(fwd[180:390]).mean()
    # transmitted fraction of the forward Sigma wave matches |S31|
    assert right_out / left_in == pytest.approx(abs(s[2, 0]), rel=1e-2)
    # reflected wave exists only left of the defect
    assert np.abs(bwd[:150]).mean() / left_in == pytest.approx(abs(s[0, 0]),
                                                               rel=5e-2)
    assert np.abs(bwd[180:390]).mean() < 1e-6 * left_in


def test_defect_profile_conserves_power_per_section(defect_net):
    w = 5 * GHZ
    prof = wave_amplitude_profile(defect_net, 0, w)
    cell = defect_net.cell

    def flux(mode, sl):
        fwd, bwd = prof[mode]
        z = bloch_impedance(mode, w, cell).real
        return ((np.abs(fwd[sl]) ** 2 - np.abs(bwd[sl]) ** 2) / z).mean()

    # net power flux constant within each uniform section ...
    for mode in Mode:
        fwd, bwd = prof[mode]
        seg = np.abs(fwd) ** 2 - np.abs(bwd) ** 2
        for sl in (slice(5, 150), slice(180, 395)):
            np.testing.assert_allclose(seg[sl], seg[sl].mean(), rtol=1e-4,
                                       atol=1e-10 * np.abs(seg).max())
    # ... and equal on both sides of the defect once the modes are
    # weighted by their traveling-wave impedances
    tot_l = sum(flux(m, slice(5, 150)) for m in Mode)
    tot_r = sum(flux(m, slice(180, 395)) for m in Mode)
    assert tot_r == pytest.approx(tot_l, rel=1e-4)


def test_profile_ill_conditioned_near_cutoff(fitted_net):
    w = cutoff(Mode.Delta, fitted_net.cell) * (1 - 1e-9)
    with pytest.raises(DecompositionIllConditioned):
        wave_amplitude_profile(fitted_net, 1, w)


def test_lowfreq_ports_give_band_ripple():
    spec = device.fitted_line()
    net = build_chain(spec, port_z="lowfreq")
    s = linear_scattering(net, 8 * GHZ)
    # low-frequency terminations are slightly mismatched at 8 GHz ...
    assert abs(s[0, 0]) > 1e-4
    # ... but the network stays lossless
    np.testing.assert_allclose(s.conj().T @ s, np.eye(4), atol=1e-8)


def test_explicit_port_impedances():
    spec = device.fitted_line()
    net = build_chain(spec, (89.0, 28.0, 89.0, 28.0))
    np.testing.assert_allclose(port_impedances(net, 5 * GHZ),
                               [89.0, 28.0, 89.0, 28.0])


@pytest.mark.parametrize("name", ["Bloch", "blcoh"])
def test_unknown_port_impedance_name_raises(name):
    """A misspelt port-impedance name is a ConfigError naming ports, not a
    silent fall-back to the low-frequency values; both names still build."""
    spec = device.fitted_line(20)
    with pytest.raises(ConfigError) as exc:
        build_chain(spec, name)
    assert [field for field, _ in exc.value.violations] == ["ports"]
    z = [port_impedances(build_chain(spec, ok), 6 * GHZ)[:2]
         for ok in ("bloch", "lowfreq")]
    np.testing.assert_allclose(z, [[88.32, 36.08], [85.0, 27.38]], atol=0.01)


def _port_row(net, omega):
    """The ports' reference impedances at one frequency in complex scalar
    arithmetic: the real part of bloch_impedance where it is real, the
    low-frequency values elsewhere, at a cutoff (where the image impedance
    is infinite) included."""
    if isinstance(net.port_z, tuple):
        return net.port_z
    z = [net.cell.z_sigma, net.cell.z_delta]
    for i, mode in enumerate((Mode.Sigma, Mode.Delta)):
        if net.port_z == "bloch":
            zb = bloch_impedance(mode, omega, net.cell)
            if math.isfinite(abs(zb)) and abs(zb.imag) < 1e-9 * abs(zb):
                z[i] = zb.real
    return (*z, *z)


@pytest.mark.parametrize("ports", ["bloch", "lowfreq", (89.0, 28.0, 89.0,
                                                         28.0)],
                         ids=["bloch", "lowfreq", "explicit"])
def test_port_impedances_of_an_array_are_the_scalar_rows(ports):
    """An array of frequencies gives one row per frequency, each equal bit
    for bit to the scalar complex arithmetic of bloch_impedance: on a
    dense grid below and above both cutoffs, at each cutoff and one ulp
    either side, and at the plasma frequency.  A float gives the same
    row, and an empty array no row."""
    cell = device.fitted_cell()
    net = build_chain(device.fitted_line(), ports)
    edges = [np.nextafter(w, [0, w, np.inf]) for w in (
        cutoff(Mode.Sigma, cell), cutoff(Mode.Delta, cell),
        cell.plasma_omega)]
    omegas = np.concatenate([np.linspace(0.01, 60, 20001) * GHZ, *edges])
    rows = port_impedances(net, omegas)
    assert rows.shape == (len(omegas), 4)
    np.testing.assert_array_equal(rows, [_port_row(net, w) for w in omegas])
    for w, row in zip(omegas[-9:], rows[-9:]):
        assert np.array_equal(row, port_impedances(net, float(w)))
    assert port_impedances(net, np.array([])).shape == (0, 4)
    # at zero frequency the Bloch ports take the low-frequency values
    low = [net.cell.z_sigma, net.cell.z_delta] * 2
    np.testing.assert_array_equal(port_impedances(net, 0.0), ports
                                  if isinstance(ports, tuple) else low)


def test_disorder_changes_scattering_deterministically():
    base = device.fitted_line()
    d1 = dataclasses.replace(base, disorder_halfwidth=0.05, seed=1)
    d2 = dataclasses.replace(base, disorder_halfwidth=0.05, seed=2)
    s1 = linear_scattering(build_chain(d1), 5 * GHZ)
    s1b = linear_scattering(build_chain(d1), 5 * GHZ)
    s2 = linear_scattering(build_chain(d2), 5 * GHZ)
    np.testing.assert_array_equal(s1, s1b)
    assert np.max(np.abs(s1 - s2)) > 1e-6


def _splu_scattering(net, omega):
    """Reference S-matrix: nodal admittance stamped branch by branch in
    electrode-major node order (a_0..a_N, b_0..b_N), solved by sparse LU."""
    n_col = net.n_cells + 1
    cell = net.cell
    rows, cols, vals = [], [], []

    def stamp(i, j, y):
        rows.extend([i, j, i, j])
        cols.extend([i, j, j, i])
        vals.extend([y, y, -y, -y])

    for c in range(n_col):
        wt = 0.5 if c in (0, n_col - 1) else 1.0
        for i in (c, n_col + c):        # C_g to ground
            rows.append(i); cols.append(i)
            vals.append(1j * omega * wt * cell.c_g)
        stamp(c, n_col + c, 1j * omega * wt * cell.c_i)
    for el in (0, 1):
        for n in range(net.n_cells):
            l = net.l_table[n, el]
            if np.isfinite(l):
                stamp(el * n_col + n, el * n_col + n + 1,
                      1j * omega * cell.c_j + 1.0 / (1j * omega * l))
    z = port_impedances(net, omega)
    e = np.zeros((net.n_nodes, 4))
    for p, (mode, side) in enumerate(network.PORTS):
        col = 0 if side == "L" else net.n_cells
        m = 0 if mode is Mode.Sigma else 1
        e[col, p], e[n_col + col, p] = network.A_MODE.T[:, m]
    for p in range(4):
        i, j = np.flatnonzero(e[:, p])
        for a in (i, j):
            for b in (i, j):
                rows.append(a); cols.append(b)
                vals.append(e[a, p] * e[b, p] / z[p])
    y = sp.coo_matrix((vals, (rows, cols)),
                      shape=(net.n_nodes, net.n_nodes)).tocsc()
    v = spla.splu(y).solve((e * (2.0 / np.sqrt(z))).astype(complex))
    return (e.T @ v) / np.sqrt(z)[:, None] - np.eye(4)


def _oracle_case(name):
    cell = device.fitted_cell()
    spec = device.fitted_line()
    port_z = "bloch"
    w_sigma, w_delta = cutoff(Mode.Sigma, cell), cutoff(Mode.Delta, cell)
    if name == "below_sigma_cutoff":
        w = w_sigma * (1 - 1e-6)
    elif name == "below_delta_cutoff":
        w = w_delta * (1 - 1e-6)
    elif name == "above_both_cutoffs":
        w = 1.2 * max(w_sigma, w_delta)
    elif name == "open_junction":
        spec = dataclasses.replace(spec, defects=((165, "open_junction"),))
        w = 5 * GHZ
    elif name == "disorder":
        spec = dataclasses.replace(spec, defects=((165, "open_junction"),),
                                   disorder_halfwidth=0.05, seed=7)
        w = 7.3 * GHZ
    elif name == "lowfreq_ports":
        port_z, w = "lowfreq", 8 * GHZ
    else:  # explicit port impedances
        port_z, w = (89.0, 28.0, 60.0, 40.0), 6 * GHZ
    return build_chain(spec, port_z), w


@pytest.mark.parametrize("case", [
    "below_sigma_cutoff", "below_delta_cutoff", "above_both_cutoffs",
    "open_junction", "disorder", "lowfreq_ports", "explicit_ports"])
def test_banded_solve_matches_sparse_oracle(case):
    net, w = _oracle_case(case)
    s = linear_scattering(net, w)
    np.testing.assert_allclose(s, _splu_scattering(net, w), rtol=0,
                               atol=1e-10)
    np.testing.assert_allclose(s, s.T, rtol=0, atol=1e-10)


_PLASMA = device.fitted_cell().plasma_omega
_SWEEP_CASES = {   # (spec overrides, port_z, frequencies in GHz)
    "delta_cutoff": ({}, "bloch", [9.2, 9.213]),
    "evanescent": ({}, "bloch", [12.0, 20.0]),
    "plasma": ({}, "bloch",
               [32.9, *(_PLASMA / GHZ * np.array([1 - 1e-6, 1, 1 + 1e-6]))]),
    "open_junction": ({"defects": ((165, "open_junction"),)}, "bloch",
                      np.linspace(4, 8, 41)),
    "disorder": ({"disorder_halfwidth": 0.02, "seed": 11}, "bloch",
                 np.linspace(0.05, 40, 81)),
    "lowfreq_ports": ({}, "lowfreq", np.linspace(1, 10, 19)),
    "4_ohm_ports": ({}, (4.0,) * 4, np.linspace(1, 10, 19)),
    "one_cell": ({"n_cells": 1}, (89.0, 28.0, 60.0, 40.0),
                 np.linspace(0.05, 40, 41)),
    "two_cells": ({"n_cells": 2}, "lowfreq", np.linspace(0.05, 40, 41)),
    "one_point": ({}, "bloch", [6.0]),
}


@pytest.mark.parametrize("case", list(_SWEEP_CASES))
def test_scattering_sweep_matches_banded_lu(case):
    overrides, port_z, f_ghz = _SWEEP_CASES[case]
    spec = dataclasses.replace(device.fitted_line(), **overrides)
    net = build_chain(spec, port_z)
    omegas = np.asarray(f_ghz) * GHZ
    s = scattering_sweep(net, omegas)
    assert s.shape == (len(omegas), 4, 4)
    np.testing.assert_allclose(
        s, [linear_scattering(net, w) for w in omegas], rtol=0, atol=1e-11)


def test_scattering_sweep_unitary_and_reciprocal(fitted_net):
    s = scattering_sweep(fitted_net, np.linspace(4, 8, 1601) * GHZ)
    np.testing.assert_allclose(s.conj().transpose(0, 2, 1) @ s,
                               np.broadcast_to(np.eye(4), s.shape), atol=1e-12)
    np.testing.assert_allclose(s, s.transpose(0, 2, 1), rtol=0, atol=1e-12)


@given(n_cells=st.integers(1, 12), disorder=st.floats(0, 0.05),
       seed=st.integers(0, 2 ** 32 - 1), defect=st.none() | st.integers(0, 11),
       ports=st.sampled_from(["bloch", "lowfreq"])
       | st.tuples(*4 * [st.floats(4, 200)]),
       f_ghz=st.lists(st.floats(0.05, 40), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_scattering_sweep_matches_banded_lu_on_short_lines(
        n_cells, disorder, seed, defect, ports, f_ghz):
    """Odd and even column counts (the middle column of the elimination is
    an end column on one cell), disorder, an open junction and frequencies
    above cutoff."""
    defects = () if defect is None else ((defect % n_cells, "open_junction"),)
    net = build_chain(device.fitted_line(n_cells, defects, disorder, seed),
                      ports)
    omegas = np.asarray(f_ghz) * GHZ
    s = scattering_sweep(net, omegas)
    np.testing.assert_allclose(
        s, [linear_scattering(net, w) for w in omegas], rtol=0, atol=1e-11)
    np.testing.assert_allclose(s, s.transpose(0, 2, 1), rtol=0, atol=1e-12)


def test_scattering_sweep_even_column_count():
    # 402 columns: the reversed direction eliminates one column fewer
    spec = device.fitted_line(401, ((165, "open_junction"),), 0.05, 7)
    net = build_chain(spec)
    omegas = np.linspace(4, 8, 1601) * GHZ
    s = scattering_sweep(net, omegas)
    np.testing.assert_allclose(
        s[::80], [linear_scattering(net, w) for w in omegas[::80]], rtol=0,
        atol=1e-11)
    np.testing.assert_allclose(s.conj().transpose(0, 2, 1) @ s,
                               np.broadcast_to(np.eye(4), s.shape), atol=1e-12)
    np.testing.assert_allclose(s, s.transpose(0, 2, 1), rtol=0, atol=1e-12)


def test_scattering_sweep_memory_is_linear_in_frequencies(fitted_net):
    # one (5, n_nodes, n_f) band of the whole grid would take about 100 MB
    omegas = np.linspace(4, 8, 1601) * GHZ
    fitted_net.ops          # the cached operators are not the sweep's
    tracemalloc.start()
    try:
        scattering_sweep(fitted_net, omegas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fitted_net.n_cells == 400 and peak < 8e6


def test_scattering_sweep_zero_frequency_is_singular():
    net = build_chain(device.fitted_line(), "lowfreq")
    with pytest.raises(SingularNetwork):
        scattering_sweep(net, [5 * GHZ, 0.0])
    with pytest.raises(SingularNetwork), np.errstate(all="ignore"):
        linear_scattering(net, 0.0)


@pytest.mark.parametrize("w, m", [(1, 1), (1, 3), (2, 3)])
def test_load_rows_address_the_diagonal_blocks(w, m):
    """_load_rows(band, w, nb, shift) views the entries (c + shift, c) of
    the blocks on the node diagonals, on a channel band of nb = 2 m filled
    from a dense matrix of distinct values (a neighbour block's entry
    where c + shift leaves 0..nb-1, 0 where it leaves the matrix)."""
    n, nb = 4, 2 * m
    size, ku = n * nb, (w + 1) * nb - 1
    dense = np.arange(1.0, size * size + 1).reshape(size, size)
    band = np.zeros((2 * ku + 1, size))
    for i, j in np.ndindex(size, size):
        if abs(i - j) <= ku:
            band[ku + i - j, j] = dense[i, j]
    for shift in (0, -m, m):
        rows = network._load_rows(band, w, nb, shift)
        assert rows.shape == (2 * w + 1, n, nb)
        assert np.shares_memory(rows, band)
        for r, node, c in np.ndindex(rows.shape):
            i = (node + r - w) * nb + c + shift
            want = dense[i, node * nb + c] if 0 <= i < size else 0.0
            assert rows[r, node, c] == want, (shift, r, node, c)
