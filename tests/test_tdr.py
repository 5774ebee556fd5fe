import math

import numpy as np
import pytest

from twpc.errors import NonUniformGrid, NoPeakAboveThreshold
from twpc.tdr import (FrequencySweep, impulse_response, locate_defect)


def _reflector_sweep(taus, gammas, f0=4e9, f1=8e9, n=801):
    f = np.linspace(f0, f1, n)
    s = sum(g * np.exp(-2j * math.pi * f * t * 1e-9)
            for g, t in zip(gammas, taus))
    return FrequencySweep(f, s)


def test_grid_validation():
    with pytest.raises(NonUniformGrid):
        FrequencySweep(np.array([1e9, 2e9, 2.5e9, 4e9] * 5), np.ones(20))
    with pytest.raises(NonUniformGrid):
        FrequencySweep(np.linspace(1e9, 2e9, 8), np.ones(8))


def test_single_reflector_peak_location_and_magnitude():
    imp = impulse_response(_reflector_sweep([4.0], [0.35]))
    i = np.argmax(np.abs(imp.h))
    dt = imp.t_ns[1] - imp.t_ns[0]
    assert imp.t_ns[i] == pytest.approx(4.0, abs=2 * dt)
    assert np.abs(imp.h[i]) == pytest.approx(0.35, rel=1e-3)


def test_reported_resolution_at_4ghz_bandwidth():
    imp = impulse_response(_reflector_sweep([4.0], [1.0]))
    assert imp.resolution_ns == pytest.approx(0.30, abs=0.005)


def test_two_reflectors_resolved_or_merged():
    # separation below the resolution: single merged peak
    imp = impulse_response(_reflector_sweep([4.0, 4.15], [0.5, 0.5]))
    mag = np.abs(imp.h)
    win = (imp.t_ns > 3.0) & (imp.t_ns < 5.2)
    m = mag[win]
    peaks = np.flatnonzero((m[1:-1] > m[:-2]) & (m[1:-1] > m[2:])
                           & (m[1:-1] > 0.25 * m.max()))
    assert len(peaks) == 1
    # separation twice the resolution: both peaks resolved
    imp = impulse_response(_reflector_sweep([4.0, 4.6], [0.5, 0.5]))
    mag = np.abs(imp.h)
    m = mag[(imp.t_ns > 3.0) & (imp.t_ns < 5.6)]
    peaks = np.flatnonzero((m[1:-1] > m[:-2]) & (m[1:-1] > m[2:])
                           & (m[1:-1] > 0.25 * m.max()))
    assert len(peaks) == 2


def test_parseval_consistency():
    sweep = _reflector_sweep([2.0, 5.5], [0.4, 0.2])
    imp = impulse_response(sweep)
    n_pad = len(imp.h)
    wsum = imp.window_values.sum()
    e_t = np.sum(np.abs(imp.h) ** 2) * wsum ** 2 / n_pad
    e_f = np.sum(np.abs(imp.window_values * sweep.s) ** 2)
    assert e_t == pytest.approx(e_f, rel=1e-10)


def test_shift_theorem():
    sweep = _reflector_sweep([3.0], [0.5])
    shifted = FrequencySweep(sweep.f,
                             sweep.s * np.exp(-2j * math.pi * sweep.f
                                              * 0.8e-9))
    a = impulse_response(sweep)
    b = impulse_response(shifted)
    ta = a.t_ns[np.argmax(np.abs(a.h))]
    tb = b.t_ns[np.argmax(np.abs(b.h))]
    dt = a.t_ns[1] - a.t_ns[0]
    assert tb - ta == pytest.approx(0.8, abs=2 * dt)


def _mainlobe_width(imp):
    mag = np.abs(imp.h)
    i = np.argmax(mag)
    half = mag[i] / 2
    lo = i
    while lo > 0 and mag[lo] > half:
        lo -= 1
    hi = i
    while hi < len(mag) - 1 and mag[hi] > half:
        hi += 1
    return imp.t_ns[hi] - imp.t_ns[lo]


def test_stronger_window_never_narrows_main_lobe():
    sweep = _reflector_sweep([4.0], [1.0])
    w_none = _mainlobe_width(impulse_response(sweep, window="none"))
    w_hann = _mainlobe_width(impulse_response(sweep, window="hann"))
    w_k4 = _mainlobe_width(impulse_response(sweep, window="kaiser", beta=4))
    w_k8 = _mainlobe_width(impulse_response(sweep, window="kaiser", beta=8))
    assert w_none <= w_hann + 1e-9
    assert w_none <= w_k4 + 1e-9
    assert w_k4 <= w_k8 + 1e-9


def test_flat_trace_has_no_defect_peak():
    # a flat unit reflection is a peak at t = 0, not an internal defect:
    # after excluding it there is nothing above threshold
    sweep = _reflector_sweep([2.5], [0.0001])
    sweep = FrequencySweep(sweep.f, sweep.s * 0.0)
    imp = impulse_response(sweep)
    with pytest.raises(NoPeakAboveThreshold):
        locate_defect(imp, v=93.6)


def test_locate_defect_two_way_conversion():
    imp = impulse_response(_reflector_sweep([3.5], [0.4]))
    est = locate_defect(imp, v=93.6)
    assert est.cell == pytest.approx(93.6 * 3.5 / 2, rel=0.01)
    assert est.uncertainty_cells == pytest.approx(93.6 * 0.30 / 2, rel=0.02)
    est2 = locate_defect(imp, v=93.6, t_offset=0.5)
    assert est2.cell == pytest.approx(93.6 * 3.0 / 2, rel=0.01)
