import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from pump_bases import AllOrders
from scipy.linalg import solve_banded

from twpc import device, harmonic_balance, network
from twpc.device import PHI0_BAR
from twpc.dispersion import amplitude_from_flux, pump_wavevector
from twpc.errors import NonConvergence, TruncationWarning
from twpc.harmonic_balance import (K_SAMPLES, HarmonicBasis,
                                   _apply_loads, _newton_step,
                                   _orbit, _sample_count, _samples,
                                   incident_amplitude,
                                   pump_harmonic_balance,
                                   pump_harmonics_at_ports)
from twpc.network import drive_solution, port_impedances

GHZ = 2e9 * math.pi
FLUX_Q = 2 * math.pi * PHI0_BAR


def test_basis_orders():
    assert HarmonicBasis(1).orders == (1,)
    assert HarmonicBasis(3).orders == (1, 3, 5)
    with pytest.raises(ValueError):
        HarmonicBasis(0)
    assert HarmonicBasis(np.int64(2)).orders == (1, 3)


@pytest.mark.parametrize("m", [2.5, 3.0, True, "3", 0])
def test_basis_takes_an_int_count_of_harmonics(m):
    # 2.5 and 3.0 were accepted and then .orders raised TypeError, True
    # meant one harmonic, "3" raised TypeError from the comparison
    with pytest.raises(ValueError, match="harmonics must be an int"):
        HarmonicBasis(m)


def test_linear_limit_matches_linear_solver(fitted_net):
    """A tiny pump drive must reproduce the linear nodal solution."""
    w = 3 * GHZ
    eps = 1e-5
    a = incident_amplitude(fitted_net, w, 3, eps)
    sol = pump_harmonic_balance(fitted_net, w, eps, [3], HarmonicBasis(3))
    v_lin = drive_solution(fitted_net, 3, w) * a
    v_hb = 1j * w * PHI0_BAR * sol.phi[0]
    np.testing.assert_allclose(v_hb, v_lin, rtol=1e-4)
    # harmonics >= 3 stay below 1e-6 of the fundamental
    fund = np.max(np.abs(sol.d[0]))
    assert np.max(np.abs(sol.d[1:])) < 1e-6 * fund


def test_quadratic_newton_contraction(fitted_net):
    w = 3 * GHZ
    eps = 0.25
    sol = pump_harmonic_balance(fitted_net, w, eps, [3], HarmonicBasis(3))
    assert sol.residual < 1e-10
    h = [r for r in sol.residual_history if r > 1e-14]
    # final step roughly squares the previous residual (Newton)
    assert h[-1] < 10 * h[-2] ** 2 / h[-3] if len(h) >= 3 else True


def test_peak_flux_tracks_launched_wave(fitted_net):
    w = 3 * GHZ
    kp = pump_wavevector(fitted_net.cell, w, 0.0)
    eps = amplitude_from_flux(0.05 * FLUX_Q, kp)
    sol = pump_harmonic_balance(fitted_net, w, eps, [3], HarmonicBasis(3))
    assert sol.peak_junction_flux / FLUX_Q == pytest.approx(0.05, rel=0.05)


def test_strong_drive_converges_via_continuation(fitted_net):
    w = 5 * GHZ
    kp = pump_wavevector(fitted_net.cell, w, 0.0)
    eps = amplitude_from_flux(0.12 * FLUX_Q, kp)
    sol = pump_harmonic_balance(fitted_net, w, eps, [3], HarmonicBasis(2))
    assert sol.residual < 1e-10


def test_flux_ceiling_warns(fitted_net, monkeypatch):
    monkeypatch.setattr(harmonic_balance, "FLUX_CEILING", 0.05)
    w = 3 * GHZ
    kp = pump_wavevector(fitted_net.cell, w, 0.0)
    eps = amplitude_from_flux(0.1 * FLUX_Q, kp)
    with pytest.warns(TruncationWarning):
        pump_harmonic_balance(fitted_net, w, eps, [3], HarmonicBasis(3))


def test_mismatched_drive_frequencies_rejected(fitted_net):
    with pytest.raises(ValueError):
        pump_harmonic_balance(fitted_net, 3 * GHZ, 1e-7, [], HarmonicBasis(2))


@pytest.mark.parametrize("ports", [[3, 3], [-1], [7], [1.0], [True]],
                         ids=["repeated", "negative", "past-3", "float",
                              "bool"])
def test_pump_ports_are_distinct_ints_0_to_3(fitted_net, ports):
    # [3, 3] pumped port 3 twice (the orbit of eps 0.04 recorded as 0.02),
    # [-1] pumped port 3, [7], [1.0] and [True] raised IndexError and
    # TypeError
    with pytest.raises(ValueError, match="distinct pump ports"):
        pump_harmonic_balance(fitted_net, 3 * GHZ, 0.02, ports,
                              HarmonicBasis(2))


@pytest.mark.parametrize("omega_p, eps, name", [
    (3 * GHZ, math.nan, "eps"), (3 * GHZ, math.inf, "eps"),
    (3 * GHZ, -0.02, "eps"), (0.0, 0.02, "omega_p"),
    (-3 * GHZ, 0.02, "omega_p"), (math.nan, 0.02, "omega_p"),
    (math.inf, 0.02, "omega_p")],
    ids=["eps-nan", "eps-inf", "eps-negative", "omega-0", "omega-negative",
         "omega-nan", "omega-inf"])
def test_pump_frequency_and_amplitude_checked_on_entry(fitted_net, omega_p,
                                                       eps, name):
    # a NaN or infinite eps and omega_p = 0 raised SingularNetwork from the
    # first LU, and a negative omega_p converged to the conjugate orbit
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        pump_harmonic_balance(fitted_net, omega_p, eps, [3],
                              HarmonicBasis(2))


def test_top_harmonic_warns_when_the_basis_is_too_small():
    # 0.1 flux quanta at 2.5 GHz on 40 cells: |d_3| / |d_1| is 0.179 with
    # two harmonics, 0.0066 with three
    net = network.build_chain(device.fitted_line(40))
    w = 2.5 * GHZ
    eps = amplitude_from_flux(0.1 * FLUX_Q, pump_wavevector(net.cell, w, 0.0))
    with pytest.warns(TruncationWarning, match="highest retained pump "
                                               "harmonic carries >10%"):
        pump_harmonic_balance(net, w, eps, [3], HarmonicBasis(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        pump_harmonic_balance(net, w, eps, [3], HarmonicBasis(3))


def test_uniform_line_keeps_harmonics_off_sigma_ports(fitted_net):
    w = 2 * GHZ
    a = incident_amplitude(fitted_net, w, 3, 0.05)
    sol = pump_harmonic_balance(fitted_net, w, 0.05, [3], HarmonicBasis(3))
    p = pump_harmonics_at_ports(sol)
    drive_power = a ** 2
    # symmetric line: nothing leaks to the Sigma ports at any harmonic
    assert p[0].max() < 1e-20 * drive_power
    assert p[2].max() < 1e-20 * drive_power


def test_even_harmonics_vanish_on_symmetric_line(fitted_net):
    w = 2 * GHZ
    sol = pump_harmonic_balance(fitted_net, w, 0.05, [3],
                                AllOrders(4))
    tot = pump_harmonics_at_ports(sol).sum(axis=0)  # orders 1..4
    assert tot[1] < 1e-6 * tot[2]  # 2nd harmonic far below 3rd
    assert tot[3] < 1e-6 * tot[2]


def test_defect_pump_transmission_about_five_percent(defect_net):
    """Pump from the right Delta port: the open junction reflects most of
    it; only ~5% of the power continues on the Delta mode."""
    w = 4.63 * GHZ
    eps = 0.05
    a = incident_amplitude(defect_net, w, 3, eps)
    sol = pump_harmonic_balance(defect_net, w, eps, [3], HarmonicBasis(2))
    p = pump_harmonics_at_ports(sol)
    t_delta = p[1, 0] / a ** 2
    assert t_delta == pytest.approx(0.05, abs=0.05)
    # flux amplitude right of the defect far exceeds the left side
    d1 = np.abs(sol.d[0])
    cells = sol.net.ops.left // 2
    right = d1[cells > 170].mean()
    left = d1[cells < 160].mean()
    assert right > 3 * left
    # fundamental leaks to the Sigma mode at roughly the -7 dB level
    leak = (p[0, 0] + p[2, 0]) / a ** 2
    assert 10 * math.log10(leak) == pytest.approx(-7.0, abs=3.0)


@pytest.mark.parametrize("f_ghz", [3.0, 2.0])
def test_lossless_line_conserves_pump_power(fitted_net, f_ghz):
    """Outgoing power over all ports and harmonics equals the incident
    power: every harmonic leaves through the loads that terminate it."""
    w = f_ghz * GHZ
    a = incident_amplitude(fitted_net, w, 3, 0.25)
    sol = pump_harmonic_balance(fitted_net, w, 0.25, [3], HarmonicBasis(3))
    p = pump_harmonics_at_ports(sol)
    assert abs(p.sum() - a ** 2) <= 1e-10 * a ** 2


def _power_imbalance(sol, eps):
    """|outgoing - incident| / incident power of an orbit, incident power
    being the sum of |a_p|^2 of a wave eps on each of its ports p."""
    incident = sum(incident_amplitude(sol.net, sol.omega_p, p, eps) ** 2
                   for p in sol.ports)
    return abs(pump_harmonics_at_ports(sol).sum() - incident) / incident


# (f GHz, flux quanta, ports): Delta-R, a strong Delta-R, the coupler's
# two Delta ports and Sigma-L
_BALANCE_DRIVES = [(3.0, 0.05, (3,)), (4.0, 0.08, (3,)),
                   (3.5, 0.03, (1, 3)), (2.5, 0.05, (0,))]


@pytest.fixture(scope="module")
def short_net():
    return network.build_chain(device.fitted_line(20))


@pytest.fixture(scope="module")
def disorder2_net():
    return network.build_chain(device.fitted_line(disorder_halfwidth=0.02,
                                                  seed=3))


@pytest.mark.parametrize("line", ["short", "fitted", "defect", "disorder2"])
def test_pump_power_balance(request, line):
    """On a lossless line every orbit sends out, over all ports and
    harmonics, the power its drives send in: the fitted 20- and 400-cell
    lines, the open junction at cell 165 and 2 % disorder."""
    net = request.getfixturevalue(f"{line}_net")
    for f_ghz, flux, ports in _BALANCE_DRIVES:
        w, eps, ports = _flux_drives(net, f_ghz, flux, ports)
        sol = pump_harmonic_balance(net, w, eps, ports, HarmonicBasis(3))
        assert _power_imbalance(sol, eps) <= 1e-9, (f_ghz, ports)


def test_pump_power_balance_sees_a_one_percent_source_error(short_net):
    """A pump 1 % stronger than the incident power booked for it breaks
    the balance by about 2 %, far past its 1e-9 bound."""
    for f_ghz, flux, ports in _BALANCE_DRIVES:
        w, eps, ports = _flux_drives(short_net, f_ghz, flux, ports)
        sol = pump_harmonic_balance(short_net, w, 1.01 * eps, ports,
                                    HarmonicBasis(3))
        assert _power_imbalance(sol, eps) > 1e-2


def _band_csr(ab):
    """The matrix held in band storage ab, ab[w + i - j, j] = A[i, j],
    as a CSR matrix."""
    w, n = len(ab) // 2, ab.shape[1]
    return sp.dia_matrix((ab, range(w, -w - 1, -1)), shape=(n, n)).tocsr()


def _csr_loads(loads, x):
    """The harmonics' load bands (2 w + 1, n, M) applied to x (M, n) by
    scipy's CSR product, one harmonic at a time."""
    return np.array([_band_csr(loads[:, :, h]) @ p for h, p in enumerate(x)])


@pytest.mark.parametrize("w, m", [(1, 3), (1, 5), (2, 3), (2, 5)])
def test_load_product_has_the_csr_products_bits(w, m):
    """The residual's load product against scipy's CSR product, bit for
    bit, on random complex bands with zeros inside the band and values in
    the corners that lie outside the matrix; the result is C-contiguous,
    as np.linalg.norm's summation order depends on the layout."""
    rng = np.random.default_rng(10 * w + m)
    shape, n = (2 * w + 1, 40, m), 40
    loads = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    loads[rng.random(shape) < 0.2] = 0.0
    x = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    out = _apply_loads(loads, x)
    assert out.flags.c_contiguous and out.shape == (m, n)
    assert out.tobytes() == _csr_loads(loads, x).tobytes()


@pytest.mark.parametrize("ports, disorder", [
    ((3,), 0.0),                # Delta sector
    ((0,), 0.0),                # Sigma sector
    ((3,), 0.02),               # 2 % disorder: the node basis
])
def test_solve_with_csr_load_product_has_the_same_bits(fitted_spec,
                                                       monkeypatch, ports,
                                                       disorder):
    """Harmonic balance on a 20-cell line gives the same bits of phi and
    of the residual history when its load product is scipy's CSR product."""
    net = network.build_chain(dataclasses.replace(
        fitted_spec, n_cells=20, disorder_halfwidth=disorder, seed=3))
    pump = _flux_drives(net, 3.0, 0.08, ports)
    sol = pump_harmonic_balance(net, *pump, HarmonicBasis(3))
    monkeypatch.setattr(harmonic_balance, "_apply_loads", _csr_loads)
    ref = pump_harmonic_balance(net, *pump, HarmonicBasis(3))
    assert len(sol.residual_history) > 2
    assert sol.phi.tobytes() == ref.phi.tobytes()
    assert sol.residual_history == ref.residual_history


def _reference_newton_step(net, omega_p, orders, z, delta, res):
    """Newton step from the real 2x2-block Jacobian assembled block by
    block as sparse matrices and solved by splu: the reference for the
    real banded Newton step, whose blocks come from the same real form."""
    ops, n = net.ops, net.n_nodes
    eye = sp.identity(n, format="csr")
    dmat = eye[ops.left + 2] - eye[ops.left]
    gamma = np.fft.fft(np.cos(delta), axis=1) / K_SAMPLES

    def conversion(q):
        return PHI0_BAR * (dmat.T @ sp.diags(ops.g * gamma[:, q % K_SAMPLES])
                           @ dmat)

    blocks = []
    for m in orders:
        row = []
        for m2 in orders:
            p, q = conversion(m - m2), conversion(m + m2)
            if m == m2:
                p = p + _band_csr(
                    ops.admittance([m * omega_p], [z], False)[..., 0]
                    * (1j * m * omega_p * PHI0_BAR))
            row.append(sp.bmat([[(p + q).real, -(p - q).imag],
                                [(p + q).imag, (p - q).real]]))
        blocks.append(row)
    rhs = np.concatenate([np.concatenate([r.real, r.imag]) for r in res])
    dx = spla.splu(sp.bmat(blocks).tocsc()).solve(rhs)
    dx = dx.reshape(len(orders), 2, n)
    return dx[:, 0] + 1j * dx[:, 1]


def _step_and_oracle(sol, seed):
    """The Newton step about the orbit of sol, on the unknowns
    pump_harmonic_balance picks for its ports and mapped back to the
    nodes, and the oracle's step, for a random right-hand side in that
    basis."""
    net, orders, w = sol.net, sol.basis.orders, sol.omega_p
    ops = net.sectors[network.parity_sector(net, sol.ports)]
    a = _samples(orders, K_SAMPLES)
    delta = _orbit(sol.d, a)
    z = port_impedances(net, w)
    rng = np.random.default_rng(seed)
    shape = (len(orders), len(ops.e))
    res = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    w_m = w * np.array(orders)
    loads = ops.admittance(w_m, [z] * len(w_m), False) * (1j * PHI0_BAR * w_m)
    step = _newton_step(ops, loads, a, np.cos(delta[ops.branches]), res)
    ref = _reference_newton_step(net, w, orders, z, delta, ops.to_nodes(res))
    return ops.to_nodes(step), ref


@pytest.mark.parametrize("basis", [HarmonicBasis(3),
                                   AllOrders(4)])
def test_newton_step_matches_real_block_oracle(fitted_net, basis):
    """One Newton step about a strongly pumped orbit, solved by the real
    banded LU in the Delta sector, against the real-block Jacobian on the
    nodes solved by splu."""
    w = 3 * GHZ
    sol = pump_harmonic_balance(fitted_net, w, 0.25, [3], basis)
    step, ref = _step_and_oracle(sol, 0)
    assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))


def _flux_drives(net, f_ghz, flux, ports=(3,)):
    """(omega_p, eps, ports) of a pump at f_ghz launching a wave of flux
    quanta flux on each of ports."""
    w = f_ghz * GHZ
    eps = amplitude_from_flux(flux * FLUX_Q, pump_wavevector(net.cell, w, 0.0))
    return w, eps, ports


@pytest.fixture(scope="module")
def disorder_net(fitted_spec):
    return network.build_chain(dataclasses.replace(
        fitted_spec, disorder_halfwidth=0.05, seed=7))


def _parent_band(ops, coupling, blocks):
    """The conversion band as the junction stamp of coupling plus node
    blocks (2 w + 1, n, nb, nb), added before they are scattered into
    LAPACK band storage."""
    w, n, nb = ops.w, len(ops.e), coupling.shape[-1]
    stamp = np.zeros(blocks.shape[:2] + (nb, nb),
                     np.result_type(coupling, blocks))
    network._stamp_branches(stamp, ops.left,
                            PHI0_BAR * ops.g[:, None, None] * coupling, w)
    stamp += blocks
    ku = (w + 1) * nb - 1
    out = np.zeros((2 * ku + 1, n * nb), stamp.dtype)
    for r, c, c2 in np.ndindex(2 * w + 1, nb, nb):
        out[ku + (r - w) * nb + c - c2, c2::nb] = stamp[r, :, c, c2]
    return out


def _node_load_blocks(loads):
    """Node blocks [[Re, -Im], [Im, Re]] (2 w + 1, n, 2 M, 2 M) of the
    harmonics' load bands (2 w + 1, n, M) on (Re x_m, then Im x_m)."""
    m = loads.shape[-1]
    re, im = np.arange(m), np.arange(m, 2 * m)
    out = np.zeros(loads.shape[:-1] + (2 * m, 2 * m))
    out[..., re, re] = out[..., im, im] = loads.real
    out[..., re, im] = -loads.imag
    out[..., im, re] = loads.imag
    return out


_GUARD_CASES = [("fitted", (3,), -1), ("fitted", (0,), 1),
                ("fitted", (0, 3), None), ("defect", (3,), None)]


@pytest.mark.parametrize("line, ports, sector, m", [
    pytest.param(*case, m, id=f"{case[0]}-ports{i}-{case[2]}"
                 + ("" if m == 3 else f"-m{m}"))
    for m in (3, 1, 5) for i, case in enumerate(_GUARD_CASES)])
def test_newton_bands_keep_the_node_block_bits(request, monkeypatch, line,
                                               ports, sector, m):
    """Every band harmonic balance solves, the describing-function start's
    and each Newton step's, holds the bytes (-0.0 included) of the junction
    stamp plus the harmonics' loads as node blocks, added before the
    scatter, in the Delta and Sigma sectors, on the nodes and on a line
    with an open junction, at M = 1, 3 and 5 harmonics (the loads' +-M
    shifted rows depend on M)."""
    net = request.getfixturevalue(f"{line}_net")
    coupled, solved = [], []
    band_fn = harmonic_balance.conversion_band
    solve_fn = harmonic_balance._solve

    def stamp(ops, coupling):
        coupled.append((ops, coupling.copy()))
        return band_fn(ops, coupling)

    def solve(ab, b, *args, **kwargs):
        solved.append((*coupled[-1], ab.copy()))
        return solve_fn(ab, b, *args, **kwargs)

    monkeypatch.setattr(harmonic_balance, "conversion_band", stamp)
    monkeypatch.setattr(harmonic_balance, "_solve", solve)
    w, eps, ports = _flux_drives(net, 3.0, 0.05, ports)
    basis = HarmonicBasis(m)
    pump_harmonic_balance(net, w, eps, ports, basis)
    w_m = w * np.array(basis.orders)
    z = port_impedances(net, w)
    kinds = []
    for ops, coupling, band in solved:
        assert ops is net.sectors[sector]
        loads = ops.admittance(w_m, [z] * len(w_m), False) \
            * (1j * PHI0_BAR * w_m)
        blocks = loads[:, :, :1, None] if band.dtype == complex \
            else _node_load_blocks(loads)
        ref = _parent_band(ops, coupling, blocks)
        assert (band.dtype, band.shape) == (ref.dtype, ref.shape)
        assert band.tobytes() == ref.tobytes()
        kinds.append(band.dtype)
    assert kinds[:2] == [complex] * 2 and float in kinds


@pytest.mark.parametrize("ports", [(3,), (0,), (0, 3)])
def test_no_band_outlives_a_newton_step(fitted_net, monkeypatch, ports):
    """While a Newton step's real band is solved, harmonic balance holds
    at most 1.5 such bands of other traced memory, counted from its call
    (Delta and Sigma sectors, the nodes): its loads enter each step's
    band, and no band is kept from step to step.  A first solve loads
    scipy.linalg untraced."""
    pump = (*_flux_drives(fitted_net, 3.0, 0.05, ports), HarmonicBasis(3))
    pump_harmonic_balance(fitted_net, *pump)
    solve_fn, held = harmonic_balance._solve, []

    def solve(ab, b, *args, **kwargs):
        if ab.dtype == float:
            in_use = tracemalloc.get_traced_memory()[0] - start - ab.nbytes
            held.append(in_use / ab.nbytes)
        return solve_fn(ab, b, *args, **kwargs)

    monkeypatch.setattr(harmonic_balance, "_solve", solve)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pump_harmonic_balance(fitted_net, *pump)
    finally:
        tracemalloc.stop()
    assert held and max(held) <= 1.5


@pytest.mark.parametrize("line, f_ghz, ports, basis", [
    ("defect", 4.63, (3,), HarmonicBasis(3)),       # open junction
    ("disorder", 3.0, (3,), HarmonicBasis(3)),      # 5 % disorder
    ("fitted", 3.0, (1, 3), HarmonicBasis(3)),      # counterpropagating
    ("fitted", 2.0, (3,), AllOrders(4)),
    ("fitted", 3.0, (0, 3), HarmonicBasis(3)),      # Sigma + Delta: nodes
])
def test_newton_step_matches_oracle_at_hard_cases(request, line, f_ghz,
                                                  ports, basis):
    net = request.getfixturevalue(f"{line}_net")
    sol = pump_harmonic_balance(net, *_flux_drives(net, f_ghz, 0.06, ports),
                                basis)
    step, ref = _step_and_oracle(sol, 1)
    assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_parity_sector_rule(fitted_net, defect_net, disorder_net):
    """The sector of a drive: its ports' parity on identical electrodes,
    the node basis on the defect and disordered lines and under a mixed
    Sigma + Delta drive."""
    sector = network.parity_sector
    assert sector(fitted_net, (3,)) == sector(fitted_net, (1, 3)) == -1
    assert sector(fitted_net, (0,)) == sector(fitted_net, (0, 2)) == 1
    assert sector(fitted_net, (0, 3)) is None
    assert sector(defect_net, (3,)) is None
    assert sector(disorder_net, (3,)) is None


def _newton_solves(net, monkeypatch, ports):
    """(iterations, (l_and_u, dtype, shape) of each banded solve) of the
    pump at 2 GHz and 0.04 flux quanta from ports."""
    calls = []

    def recorder(l_and_u, ab, b, *args, **kwargs):
        calls.append((l_and_u, ab.dtype, ab.shape))
        return solve_banded(l_and_u, ab, b, *args, **kwargs)

    monkeypatch.setattr("scipy.linalg.solve_banded", recorder)
    pump = _flux_drives(net, 2.0, 0.04, ports)
    return pump_harmonic_balance(net, *pump, HarmonicBasis(3)).iterations, \
        calls


def test_newton_steps_are_real_banded_solves(fitted_net, monkeypatch):
    """Two complex banded solves of the fundamental on the 401 columns of
    the Delta sector (the describing-function start), then one real
    banded solve per Newton iteration, with (Re, Im) of three harmonics on
    those columns: the benchmark's harmonic_balance.lu_* metrics are read
    from these calls."""
    it, calls = _newton_solves(fitted_net, monkeypatch, (3,))
    assert it > 0
    assert calls == [((1, 1), np.complex128, (3, 401))] * 2 \
        + [((11, 11), np.float64, (23, 2406))] * it


@pytest.mark.parametrize("line, ports", [
    ("disorder", (3,)), ("defect", (3,)), ("fitted", (0, 3))])
def test_node_basis_newton_steps(request, monkeypatch, line, ports):
    """Where the line or the drive breaks the electrode swap, the two
    solves of the describing-function start are complex on the fundamental
    of all 802 nodes, and each Newton step solves (Re, Im) of three
    harmonics on them."""
    net = request.getfixturevalue(f"{line}_net")
    it, calls = _newton_solves(net, monkeypatch, ports)
    assert it > 0
    assert calls == [((2, 2), np.complex128, (5, 802))] * 2 \
        + [((17, 17), np.float64, (35, 4812))] * it


@pytest.mark.parametrize("f_ghz, flux, basis", [
    (3.0, 0.06, HarmonicBasis(3)),
    (9.0, 0.02, HarmonicBasis(3)),                  # near the Delta cutoff
    (5.0, 0.12, HarmonicBasis(2)),                  # needs continuation
])
def test_sector_orbit_matches_node_orbit(fitted_net, monkeypatch, f_ghz,
                                         flux, basis):
    """The Delta-sector solve, mapped back to the nodes, against the same
    Newton loop on the nodes."""
    pump = _flux_drives(fitted_net, f_ghz, flux)
    sol = pump_harmonic_balance(fitted_net, *pump, basis)
    monkeypatch.setattr(harmonic_balance, "parity_sector",
                        lambda net, ports: None)
    ref = pump_harmonic_balance(fitted_net, *pump, basis)
    assert sol.residual < 1e-10 and ref.residual < 1e-10
    assert np.max(np.abs(sol.phi - ref.phi)) <= 1e-10 * np.max(np.abs(ref.phi))
    assert np.max(np.abs(sol.d - ref.d)) <= 1e-10 * np.max(np.abs(ref.d))


def test_newton_sample_count_rule():
    for h_max in range(1, 13):
        k = _sample_count(h_max)
        assert k & (k - 1) == 0 and k >= 32 and k >= 4 * h_max
        assert k == 32 or k < 8 * h_max        # the smallest such power


@pytest.mark.parametrize("f_ghz, flux, basis", [
    (3.0, 0.06, HarmonicBasis(3)),
    (5.0, 0.12, HarmonicBasis(2)),
    (2.0, 0.05, AllOrders(4)),
])
def test_newton_samples_match_oversampled_orbit(fitted_net, monkeypatch,
                                                f_ghz, flux, basis):
    pump = _flux_drives(fitted_net, f_ghz, flux)
    sol = pump_harmonic_balance(fitted_net, *pump, basis)
    monkeypatch.setattr(harmonic_balance, "_sample_count", lambda h_max: 128)
    ref = pump_harmonic_balance(fitted_net, *pump, basis)
    assert np.max(np.abs(sol.phi - ref.phi)) <= 1e-11 * np.max(np.abs(ref.phi))


def test_nonconvergence_reports_every_attempts_newton_steps(fitted_spec,
                                                          monkeypatch):
    """A failed solve reports the Newton steps of all its continuation
    attempts (each one Jacobian solve), not only the last attempt's, with
    the last attempt's residual; a converged solve still reports the steps
    of its last attempt."""
    net = network.build_chain(dataclasses.replace(fitted_spec, n_cells=20))
    w = 3 * GHZ
    pump = w, 0.02, [3]
    steps = []

    def counted(*args, **kwargs):
        steps.append(1)
        return _newton_step(*args, **kwargs)

    monkeypatch.setattr(harmonic_balance, "_newton_step", counted)
    sol = pump_harmonic_balance(net, *pump, HarmonicBasis(2))
    assert sol.iterations == len(steps) > 0     # one attempt, the full drive
    steps.clear()
    monkeypatch.setattr(harmonic_balance, "TOL", 0.0)  # nothing converges
    monkeypatch.setattr(harmonic_balance, "MAX_ITER", 3)
    with pytest.raises(NonConvergence) as exc:
        pump_harmonic_balance(net, *pump, HarmonicBasis(2))
    # attempts at drive steps 1, 1/2, ..., 1/32 of at most 3 steps each
    assert harmonic_balance.MAX_ITER < exc.value.iterations == len(steps)
    assert len(steps) <= 6 * 3
    assert f"after {len(steps)} iterations" in str(exc.value)
    assert math.isfinite(exc.value.residual) and exc.value.residual > 0


@pytest.mark.parametrize("f_ghz", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("flux", [0.04, 0.06, 0.08])
def test_pump_sweep_drives_converge_in_one_attempt(fitted_net, monkeypatch,
                                                   f_ghz, flux):
    """From the describing-function start every drive of the benchmark's
    pump sweep converges at the full drive in a few Newton steps; from
    rest, 3 GHz at 0.06 and 0.08 and 4 GHz at 0.08 flux quanta took 39 to
    50 steps over several attempts."""
    steps = []

    def counted(*args, **kwargs):
        steps.append(1)
        return _newton_step(*args, **kwargs)

    monkeypatch.setattr(harmonic_balance, "_newton_step", counted)
    sol = pump_harmonic_balance(fitted_net, *_flux_drives(fitted_net, f_ghz,
                                                          flux),
                                HarmonicBasis(3))
    assert sol.residual < 1e-10
    assert sol.iterations == len(steps) <= 8    # one attempt


def _h3_over_h1(sol):
    return np.max(np.abs(sol.d[1])) / np.max(np.abs(sol.d[0]))


def test_start_selects_between_coexisting_orbits(fitted_net, monkeypatch):
    """Near the third-harmonic resonance below the Delta cutoff two
    orbits coexist at 3.025 GHz and 0.05 flux quanta.  The describing-
    function start converges to the one continuous with its 3.024 and
    3.026 GHz neighbours; a start from rest converges to a second orbit
    with three times the third harmonic."""
    sols = [pump_harmonic_balance(fitted_net, *_flux_drives(fitted_net, f,
                                                            0.05),
                                  HarmonicBasis(3))
            for f in (3.024, 3.025, 3.026)]
    ratios = [_h3_over_h1(sol) for sol in sols]
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios == pytest.approx([0.031, 0.039, 0.063], abs=2e-3)
    monkeypatch.setattr(harmonic_balance, "_predict",
                        lambda ops, loads, i_src: np.zeros(
                            (loads.shape[2], loads.shape[1]), complex))
    rest = pump_harmonic_balance(fitted_net, sols[1].omega_p, sols[1].eps,
                                 sols[1].ports, HarmonicBasis(3))
    assert sols[1].residual < 1e-10 and rest.residual < 1e-10
    assert _h3_over_h1(rest) == pytest.approx(0.126, abs=2e-3)
