import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from twpc import device, dispersion, matching
from twpc.dispersion import (Mode, pump_wavevector, wavevector,
                             xpm_inductance)
from twpc.cli import main
from twpc.errors import (AmplitudeOutOfRange, NoSolutionInBand, NonConvergence,
                         PumpAboveCutoff)
from twpc.matching import Direction, ProcessKind, gap_map, solve_corrected

GHZ = 2e9 * math.pi


@pytest.fixture(scope="module")
def cell():
    return device.fitted_cell()


def test_circulation_lowfreq_closed_form(cell):
    c = device.derive_constants(cell)
    wp = 3.0 * GHZ
    # general velocity form, signal forward and idler backward on Sigma,
    # pump backward on Delta: omega_S = 2 omega_P (1/v_I - 1/v_P)
    # / (1/v_S - 1/v_I), which simplifies to omega_P (v_S/v_D - 1)
    v_s, v_i, v_p = c.v_sigma0, -c.v_sigma0, -c.v_delta0
    ws = 2 * wp * (1 / v_i - 1 / v_p) / (1 / v_s - 1 / v_i)
    assert ws == pytest.approx(wp * (c.v_sigma0 / c.v_delta0 - 1), rel=1e-12)
    # published operating point: 3 GHz pump -> 6.31 GHz signal
    assert ws / GHZ == pytest.approx(6.312, abs=5e-3)


def test_coupler_lowfreq_closed_form(cell):
    c = device.derive_constants(cell)
    wp = 2.6 * GHZ
    ws = wp * c.v_sigma0 / c.v_delta0
    # published operating point: 2.6 GHz pump -> 8.07 GHz probe
    assert ws / GHZ == pytest.approx(8.07, abs=0.01)


def test_corrected_matches_lowfreq_at_low_pump(cell):
    c = device.derive_constants(cell)
    wp = 0.2 * GHZ
    ws_lf = wp * (c.v_sigma0 / c.v_delta0 - 1)
    pt = solve_corrected(ProcessKind.Circulation, wp, 0.0, cell)[0]
    assert pt.omega_s == pytest.approx(ws_lf, rel=2e-3)
    ws_co = wp * c.v_sigma0 / c.v_delta0
    pt = solve_corrected(ProcessKind.TunableCoupling, wp, 0.0, cell)[0]
    assert pt.omega_s == pytest.approx(ws_co, rel=2e-3)


@pytest.mark.parametrize("kind,eps", [
    (ProcessKind.Circulation, 0.0),
    (ProcessKind.Circulation, 0.2),
    (ProcessKind.TunableCoupling, 0.0),
    (ProcessKind.TunableCoupling, 0.2),
])
def test_energy_and_momentum_conservation(cell, kind, eps):
    wp = 3.0 * GHZ
    for pt in solve_corrected(kind, wp, eps, cell):
        if kind is ProcessKind.TunableCoupling:
            assert pt.omega_i == pt.omega_s
        else:
            assert pt.omega_i == pt.omega_s + 2 * wp  # exact by construction
        assert abs(pt.kappa) < 1e-10
        # wavevectors belong to the renormalized dispersion
        l_xpm = xpm_inductance(cell.l_j, eps, pt.k_p)
        assert pt.k_s == pytest.approx(
            wavevector(Mode.Sigma, pt.omega_s, cell, l_xpm), abs=1e-12)
        assert pt.k_i == pytest.approx(
            -wavevector(Mode.Sigma, pt.omega_i, cell, l_xpm), abs=1e-12)
        assert pt.k_s > 0 > pt.k_i


def test_dispersion_pulls_circulation_point_down(cell):
    """Lattice + plasma curvature lower the matched signal frequency
    relative to the dispersionless estimate at practical pump settings."""
    c = device.derive_constants(cell)
    wp = 3.0 * GHZ
    ws_lf = wp * (c.v_sigma0 / c.v_delta0 - 1)
    pt = solve_corrected(ProcessKind.Circulation, wp, 0.0, cell)[0]
    assert pt.omega_s < ws_lf


def test_roots_shift_monotonically_with_pump_amplitude(cell):
    wp = 3.0 * GHZ
    roots = [solve_corrected(ProcessKind.Circulation, wp, e, cell)[0].omega_s
             for e in (0.0, 0.1, 0.2, 0.3)]
    diffs = np.diff(roots)
    assert np.all(diffs < 0) or np.all(diffs > 0)


def test_roots_vary_continuously(cell):
    wp = 3.0 * GHZ
    a = solve_corrected(ProcessKind.Circulation, wp, 0.1, cell)[0].omega_s
    b = solve_corrected(ProcessKind.Circulation, wp + 2e3 * math.pi, 0.1,
                        cell)[0].omega_s
    assert abs(b - a) < 2e6 * math.pi  # 1 kHz pump move -> < 1 MHz root move


def test_aliased_root_appears_only_at_strong_pump(cell):
    wp = 5.0 * GHZ
    kp = pump_wavevector(cell, wp, 0.0)
    eps_small = dispersion.amplitude_from_flux(
        0.06 * 2 * math.pi * device.PHI0_BAR, kp)
    with pytest.raises(NoSolutionInBand):
        solve_corrected(ProcessKind.CirculationAliased, wp, eps_small, cell)
    eps_big = dispersion.amplitude_from_flux(
        0.12 * 2 * math.pi * device.PHI0_BAR, kp)
    pts = solve_corrected(ProcessKind.CirculationAliased, wp, eps_big, cell)
    assert len(pts) == 1
    assert pts[0].omega_s / GHZ == pytest.approx(10.38, abs=0.01)
    # umklapp balance: k_S + |k_I| + 2 k_P = 2 pi
    assert pts[0].k_s - pts[0].k_i + 2 * pts[0].k_p == pytest.approx(
        2 * math.pi, abs=1e-9)


def test_no_aliased_root_at_low_pump_frequencies(cell):
    for fp in (2.5, 3.5, 4.5):
        kp = pump_wavevector(cell, fp * GHZ, 0.0)
        eps = dispersion.amplitude_from_flux(
            0.06 * 2 * math.pi * device.PHI0_BAR, kp)
        with pytest.raises(NoSolutionInBand):
            solve_corrected(ProcessKind.CirculationAliased, fp * GHZ, eps,
                            cell)


def test_gap_map_structure(cell):
    pumps = np.array([2.0, 3.0, 4.0]) * GHZ
    curves, failures = gap_map(
        [ProcessKind.Circulation, ProcessKind.CirculationAliased], pumps,
        cell, 0.05)
    assert failures == []
    ci_fw = curves[(ProcessKind.Circulation, Direction.forward)]
    ci_bw = curves[(ProcessKind.Circulation, Direction.backward)]
    assert ci_fw.shape == (3, 2)
    # backward curve is the idler branch: probe shifted by 2 omega_P
    np.testing.assert_allclose(ci_bw[:, 1], ci_fw[:, 1] + 2 * ci_fw[:, 0],
                               rtol=1e-12)
    # absent points are absent, not interpolated
    al = curves[(ProcessKind.CirculationAliased, Direction.forward)]
    assert al.shape == (0, 2)
    # deterministic ordering
    assert np.all(np.diff(ci_fw[:, 0]) > 0)


@pytest.mark.parametrize("eps, calls", [(0.0, 0), (0.2, 1)])
def test_xpm_inductance_computed_once_per_solve(cell, monkeypatch, eps,
                                                calls):
    """The weak waves' XPM inductance is one number per solve: computed
    once when the pump is on, never at zero amplitude."""
    seen = []

    def counted(*args):
        seen.append(args)
        return xpm_inductance(*args)

    monkeypatch.setattr(dispersion, "xpm_inductance", counted)
    monkeypatch.setattr(matching, "xpm_inductance", counted, raising=False)
    pts = solve_corrected(ProcessKind.Circulation, 3.0 * GHZ, eps, cell)
    assert pts and len(seen) == calls


def test_negative_amplitude_raises(cell):
    with pytest.raises(AmplitudeOutOfRange, match="^epsilon_p must be >= 0$"):
        solve_corrected(ProcessKind.Circulation, 3.0 * GHZ, -0.1, cell)


def _zero_at_sample(index, grids):
    """_residual_fn stand-in: the residual w - grid[index], exactly zero at
    one scan sample.  Its first call gets the scan grid, kept in grids."""
    def residual_fn(kind, omega_p, k_p, cell, l_eff):
        def res(w):
            if not grids:
                grids.append(np.array(w))
            return w - grids[0][index]
        return res
    return residual_fn


@pytest.mark.parametrize("index", [0, 100, -1],
                         ids=["first", "interior", "last"])
def test_root_on_a_scan_sample_is_reported_once(cell, monkeypatch, index):
    grids = []
    monkeypatch.setattr(matching, "_residual_fn",
                        _zero_at_sample(index, grids))
    pts = solve_corrected(ProcessKind.TunableCoupling, 3.0 * GHZ, 0.0, cell)
    (grid,) = grids
    assert len(grid) > 200
    assert [(pt.omega_s, pt.kappa) for pt in pts] == [(grid[index], 0.0)]


# (process, f_p GHz, float.hex of omega_s, k_s and k_p) at 0.12 flux
# quanta, or None where there is no root; the Al root at 5 GHz sits 92 kHz
# below the top of its scan band, the one at 4.97684 GHz just above the
# aliased-circulation threshold
_PINNED_ROOTS = [
    ("Ci", 2.0, ("0x1.63f301f2ff446p+34", "0x1.1e468542942aep-2",
                 "0x1.c0323921fbf48p-2")),
    ("Ci", 3.5, ("0x1.1cb9ac4315940p+35", "0x1.d250efb11db61p-2",
                 "0x1.90d63e74afef9p-1")),
    ("Ci", 5.0, ("0x1.59d09f72f2135p+35", "0x1.1f5b2a5433be1p-1",
                 "0x1.29507af8356f6p+0")),
    ("Co", 2.0, ("0x1.12454d79b6b2bp+35", "0x1.c0323921fbf48p-2",
                 "0x1.c0323921fbf48p-2")),
    ("Co", 3.5, ("0x1.d0414db3be1ccp+35", "0x1.90d63e74afefap-1",
                 "0x1.90d63e74afef9p-1")),
    ("Co", 5.0, ("0x1.3c3c794fd7b74p+36", "0x1.29507af8356f6p+0",
                 "0x1.29507af8356f6p+0")),
    ("Al", 2.0, None),
    ("Al", 3.5, None),
    ("Al", 4.97684, ("0x1.e83c3679311dap+35", "0x1.a9ad818268982p-1",
                     "0x1.27b8540b99516p+0")),
    ("Al", 5.0, ("0x1.e60f977753122p+35", "0x1.a766461dbdbcdp-1",
                 "0x1.29507af8356f6p+0")),
]


@pytest.mark.parametrize("kind,f_p,want", _PINNED_ROOTS)
def test_roots_pinned_to_the_last_bit(cell, kind, f_p, want):
    eps = _flux_eps(cell, f_p)
    if want is None:
        with pytest.raises(NoSolutionInBand):
            solve_corrected(ProcessKind(kind), f_p * GHZ, eps, cell)
        return
    (pt,) = solve_corrected(ProcessKind(kind), f_p * GHZ, eps, cell)
    assert (pt.omega_s.hex(), pt.k_s.hex(), pt.k_p.hex()) == want


def _scalar_scan(kind, omega_p, epsilon_p, cell, scan_step=2e7 * math.pi,
                 tol=1e-10):
    """Reference roots: the bracket scan with one scalar residual call per
    grid point, followed by brentq on each bracket."""
    k_p = pump_wavevector(cell, omega_p, epsilon_p)
    l_xpm = xpm_inductance(cell.l_j, epsilon_p, k_p)
    hi = dispersion.cutoff(Mode.Sigma, cell, l_xpm) * (1.0 - 1e-9)
    if kind is not ProcessKind.TunableCoupling:
        hi -= 2.0 * omega_p
    lo = min(scan_step, 0.5 * hi)
    if hi <= lo:
        return []
    res = matching._residual_fn(kind, omega_p, k_p, cell, l_xpm)
    grid = np.arange(lo, hi, scan_step)
    if grid[-1] < hi:
        grid = np.append(grid, hi)
    vals = np.array([res(w) for w in grid])
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0):
        w = grid[i] if vals[i] == 0.0 else brentq(
            res, grid[i], grid[i + 1], xtol=1e-3, rtol=1e-15)
        if abs(res(w)) <= tol:
            roots.append(float(w))
    return roots


def _flux_eps(cell, f_p, flux_quanta=0.12):
    k_p = pump_wavevector(cell, f_p * GHZ, 0.0)
    return dispersion.amplitude_from_flux(
        flux_quanta * 2 * math.pi * device.PHI0_BAR, k_p)


_ORACLE_CASES = [
    (device.fitted_cell(), kind, f_p, flux, None)
    for kind in ProcessKind for f_p in (2.0, 3.5, 5.0) for flux in (0.0, 0.12)
] + [
    (device.design_cell(), kind, f_p, 0.06, None)
    for kind in ProcessKind for f_p in (2.0, 3.5, 5.0)
] + [
    # either side of the aliased-circulation threshold, and the root that
    # sits 92 kHz below the top of the scan band
    (device.fitted_cell(), ProcessKind.CirculationAliased, f_p, 0.12, n)
    for f_p, n in ((4.97683, 0), (4.97684, 1), (5.0, 1))
]


@pytest.mark.parametrize("cell_,kind,f_p,flux,n_roots", _ORACLE_CASES)
def test_array_scan_matches_scalar_scan(cell_, kind, f_p, flux, n_roots):
    eps = _flux_eps(cell_, f_p, flux) if flux else 0.0
    want = _scalar_scan(kind, f_p * GHZ, eps, cell_)
    try:
        got = [pt.omega_s for pt in solve_corrected(kind, f_p * GHZ, eps,
                                                    cell_)]
    except NoSolutionInBand:
        got = []
    assert len(got) == len(want)
    if n_roots is not None:
        assert len(got) == n_roots
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * w


def test_gap_map_solves_each_point_once(cell, monkeypatch):
    calls = []
    solve = matching.solve_corrected

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)

    monkeypatch.setattr(matching, "solve_corrected", counting)
    kinds = list(ProcessKind)
    pumps = np.array([2.0, 3.5, 5.0]) * GHZ
    curves, failures = gap_map(kinds, pumps, cell,
                               lambda wp: _flux_eps(cell, wp / GHZ))
    assert failures == []
    assert len(calls) == len(kinds) * len(pumps)
    for args, kwargs in calls:      # positional (kind, omega_p, eps, cell)
        kind, wp, eps, cell_ = args
        assert kwargs == {} and cell_ is cell
        assert eps == _flux_eps(cell, wp / GHZ)
    # one solve feeds both directions
    for kind in kinds:
        fw = curves[(kind, Direction.forward)]
        bw = curves[(kind, Direction.backward)]
        assert fw.shape == bw.shape
        shift = 0.0 if kind is ProcessKind.TunableCoupling else 2.0
        np.testing.assert_array_equal(bw[:, 1], fw[:, 1] + shift * fw[:, 0])


def test_gap_map_lists_points_above_pump_cutoff(cell):
    # the Delta-mode pump cutoff of the fitted cell is 9.21 GHz
    pumps = np.array([8.0, 9.0, 10.0]) * GHZ
    curves, failures = gap_map([ProcessKind.TunableCoupling], pumps, cell,
                               0.05)
    co = curves[(ProcessKind.TunableCoupling, Direction.forward)]
    np.testing.assert_array_equal(co[:, 0], pumps[:2])
    (failure,) = failures
    kind, omega_p, exc = failure
    assert kind is ProcessKind.TunableCoupling and omega_p == pumps[2]
    assert isinstance(exc, PumpAboveCutoff)


def test_brent_port_equals_scipy_brentq(cell, monkeypatch):
    """The port returns the same float as scipy's brentq on every bracket
    that gap_map's solves build, for each process, 31 pumps and four
    fluxes (flux quanta; 0 is the unpumped line)."""
    calls = []
    brent = matching._brent

    def recording(f, a, b, xtol, rtol):
        assert (xtol, rtol) == (1e-3, 1e-15)
        calls.append((f, a, b))
        return brent(f, a, b, xtol, rtol)

    monkeypatch.setattr(matching, "_brent", recording)
    pumps = np.linspace(2.0, 5.0, 31) * GHZ + 1.7e6 * math.pi
    for flux in (0.0, 0.04, 0.08, 0.12):
        gap_map(list(ProcessKind), pumps, cell, lambda wp: _flux_eps(
            cell, wp / GHZ, flux) if flux else 0.0)
    assert len(calls) > 200
    for f, a, b in calls:
        assert brent(f, a, b, 1e-3, 1e-15) == brentq(
            f, a, b, xtol=1e-3, rtol=1e-15), (a, b)


def test_brent_endpoint_roots():
    def f(x):
        return x - 2.0
    assert matching._brent(f, 2.0, 3.0, 1e-3, 1e-15) == 2.0
    assert matching._brent(f, 1.0, 2.0, 1e-3, 1e-15) == 2.0
    assert matching._brent(f, 1.0, 3.0, 1e-3, 1e-15) == brentq(
        f, 1.0, 3.0, xtol=1e-3, rtol=1e-15)
    with pytest.raises(ValueError):
        matching._brent(f, 3.0, 4.0, 1e-3, 1e-15)


def test_brent_exhausted_iterations_raise_nonconvergence(monkeypatch):
    def step(x):        # no secant step lands on the jump at 1/3
        return -1.0 if x < 1.0 / 3.0 else 1.0
    with pytest.raises(RuntimeError):
        brentq(step, 0.0, 1.0, xtol=1e-12, rtol=1e-15, maxiter=5)
    monkeypatch.setattr(matching, "BRENT_MAXITER", 5)
    with pytest.raises(NonConvergence) as err:
        matching._brent(step, 0.0, 1.0, 1e-12, 1e-15)
    assert err.value.iterations == 5 and err.value.residual == 1.0


def test_gap_map_lists_root_search_failures(cell, monkeypatch):
    monkeypatch.setattr(matching, "BRENT_MAXITER", 1)
    pumps = np.array([2.5, 3.5]) * GHZ
    curves, failures = gap_map([ProcessKind.Circulation], pumps, cell, 0.05)
    assert [(kind, wp) for kind, wp, _ in failures] == [
        (ProcessKind.Circulation, wp) for wp in pumps]
    assert all(isinstance(exc, NonConvergence) for _, _, exc in failures)
    assert curves[(ProcessKind.Circulation, Direction.forward)].shape == (0, 2)


@pytest.mark.parametrize("argv", [
    ["phase-match", "--process", "Ci", "--f-pump", "3", "--pump-eps", "0.05"],
    ["gaps-map", "--processes", "Ci", "--pump-points", "3",
     "--pump-eps", "0.05"]])
def test_root_search_failure_exit_code(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(matching, "BRENT_MAXITER", 1)
    rc = main(argv + ["--out-dir", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert rc == 3 and err["error"] == "NonConvergence"
    assert err["iterations"] == 1 and err["residual"] > 0
    assert err["message"].startswith("brent root search did not converge")
