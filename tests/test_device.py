import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants

from twpc import device
from twpc.device import (CellParams, LineSpec, PHI0_BAR, derive_constants,
                         design_cell, fitted_cell, load_spec, sample_disorder,
                         spec_from_json, spec_to_json)
from twpc.dispersion import Mode, cutoff
from twpc.errors import ConfigError
from twpc.network import build_chain


def test_reduced_flux_quantum_matches_codata():
    assert PHI0_BAR == pytest.approx(constants.hbar / (2 * constants.e),
                                     rel=1e-12)


def test_cell_from_plasma_frequency_round_trip():
    cell = CellParams(l_j=0.9e-9, c_g=0.13e-12, c_i=0.55e-12,
                      plasma_omega=2 * math.pi * 32.9e9)
    again = CellParams(l_j=cell.l_j, c_g=cell.c_g, c_i=cell.c_i,
                       plasma_omega=1.0 / math.sqrt(cell.l_j * cell.c_j))
    assert again.c_j == pytest.approx(cell.c_j, rel=1e-14)


def test_cell_rejects_both_or_neither_c_j_and_plasma():
    with pytest.raises(ConfigError):
        CellParams(l_j=1e-9, c_g=1e-13, c_i=5e-13)
    with pytest.raises(ConfigError):
        CellParams(l_j=1e-9, c_g=1e-13, c_i=5e-13, c_j=2e-14,
                   plasma_omega=2e11)


def test_cell_rejects_nonpositive_and_large_c_j():
    with pytest.raises(ConfigError):
        CellParams(l_j=-1e-9, c_g=1e-13, c_i=5e-13, c_j=2e-14)
    with pytest.raises(ConfigError):
        # junction capacitance must stay below the ground capacitance
        CellParams(l_j=1e-9, c_g=1e-13, c_i=5e-13, c_j=2e-13)


def test_velocity_ratio_is_sqrt_mu_exactly():
    cell = fitted_cell()
    c = derive_constants(cell)
    mu = 1 + 2 * cell.c_i / cell.c_g        # mode asymmetry
    assert c.v_sigma0 / c.v_delta0 == pytest.approx(math.sqrt(mu), rel=1e-14)


def test_impedance_product_identity():
    cell = design_cell()
    c = derive_constants(cell)
    expect = cell.l_j / math.sqrt(cell.c_g * (cell.c_g + 2 * cell.c_i))
    assert c.z_sigma * c.z_delta == pytest.approx(expect, rel=1e-14)
    # geometric mean close to the 50-ohm feed environment
    assert math.sqrt(c.z_sigma * c.z_delta) == pytest.approx(50.0, rel=0.05)


def test_derive_constants_is_pure():
    cell = fitted_cell()
    a, b = derive_constants(cell), derive_constants(cell)
    assert a == b


def test_validate_collects_all_violations():
    with pytest.raises(ConfigError) as err:
        LineSpec(cell=fitted_cell(), n_cells=400,
                 defects=((-3, "open_junction"), (165, "bogus")),
                 disorder_halfwidth=0.7)
    paths = [p for p, _ in err.value.violations]
    assert any("defects[0]" in p for p in paths)
    assert any("defects[1]" in p for p in paths)
    assert any("disorder" in p for p in paths)


@pytest.mark.parametrize("field, value", [
    ("n_cells", 3.5), ("n_cells", True), ("n_cells", "400"),
    ("seed", 1.5), ("seed", np.bool_(False)), ("seed", None)])
def test_line_spec_rejects_non_integer_count_or_seed(field, value):
    # as spec_from_json does, in the one error listing every violation
    with pytest.raises(ConfigError) as err:
        LineSpec(cell=fitted_cell(), disorder_halfwidth=0.7, **{field: value})
    assert err.value.violations == [(field, "must be an integer"),
                                    ("disorder_halfwidth",
                                     "must lie in [0, 0.5)")]
    spec = LineSpec(cell=fitted_cell(), n_cells=np.int64(10),
                    seed=np.uint32(3))
    assert build_chain(spec).n_cells == 10


@pytest.mark.parametrize("cell", [165.7, True, "165", np.bool_(True)])
def test_line_spec_rejects_non_integer_defect_cell(cell):
    # not truncated to a cell: listed with the other violations, while an
    # integral float, as JSON may write one, names its cell
    with pytest.raises(ConfigError) as err:
        LineSpec(cell=fitted_cell(), defects=({"cell": cell},
                                              (cell, "open_junction")),
                 disorder_halfwidth=0.7)
    assert err.value.violations == [
        ("defects[0].cell", "must be an integer"),
        ("defects[1].cell", "must be an integer"),
        ("disorder_halfwidth", "must lie in [0, 0.5)")]
    spec = LineSpec(cell=fitted_cell(), defects=({"cell": 165.0},))
    assert spec.defects == ((165, "open_junction"),)


def test_line_spec_reads_a_bare_number_and_lists_a_malformed_defect():
    # a bare number is read as {"cell": number}; any other entry that is
    # not a (cell, kind) pair is one violation, not a raw exception
    spec = LineSpec(cell=fitted_cell(), defects=(165.0,))
    assert spec.defects == ((165, "open_junction"),)
    with pytest.raises(ConfigError) as err:
        LineSpec(cell=fitted_cell(), defects=(165.7, True, None, "165",
                                              (1, "open_junction", 2)),
                 disorder_halfwidth=0.7)
    assert err.value.violations == [
        ("defects[0].cell", "must be an integer"),
        ("defects[1].cell", "must be an integer"),
        *((f"defects[{i}]", "need a cell index or a (cell, kind) pair")
          for i in (2, 3, 4)),
        ("disorder_halfwidth", "must lie in [0, 0.5)")]


def test_line_spec_names_a_defect_without_a_cell():
    # a dict entry with no "cell" is one violation, not a raw KeyError
    with pytest.raises(ConfigError) as err:
        LineSpec(fitted_cell(), defects=({"kind": "open_junction"},
                                         {"cell": 3}, {}), seed=-1)
    assert err.value.violations == [("defects[0].cell", "missing"),
                                    ("defects[2].cell", "missing"),
                                    ("seed", "must be >= 0")]


def test_disorder_is_seeded_and_bounded():
    spec = dataclasses.replace(device.fitted_line(), disorder_halfwidth=0.05,
                               seed=7)
    t1, t2 = sample_disorder(spec), sample_disorder(spec)
    np.testing.assert_array_equal(t1, t2)
    l0 = spec.cell.l_j
    assert t1.shape == (400, 2)
    assert np.all(t1 >= l0 * 0.95) and np.all(t1 <= l0 * 1.05)
    t3 = sample_disorder(dataclasses.replace(spec, seed=8))
    assert not np.array_equal(t1, t3)


def test_disorder_marks_defects_open():
    spec = dataclasses.replace(device.fitted_line(),
                               defects=((165, "open_junction"),))
    table = sample_disorder(spec)
    assert np.isinf(table[165, 0])
    assert np.isfinite(table[165, 1])
    assert np.isfinite(table[:165]).all() and np.isfinite(table[166:]).all()


def test_spec_json_round_trip(tmp_path):
    spec = dataclasses.replace(device.fitted_line(),
                               defects=((165, "open_junction"),),
                               disorder_halfwidth=0.02, seed=3)
    doc = spec_to_json(spec)

    def close(a, b):
        # unit-scaled JSON keys (nH, pF, GHz) are not bit-invertible
        assert b.cell.l_j == pytest.approx(a.cell.l_j, rel=1e-12)
        assert b.cell.c_g == pytest.approx(a.cell.c_g, rel=1e-12)
        assert b.cell.c_i == pytest.approx(a.cell.c_i, rel=1e-12)
        assert b.cell.c_j == pytest.approx(a.cell.c_j, rel=1e-12)
        assert (b.n_cells, b.defects, b.disorder_halfwidth, b.seed) == \
            (a.n_cells, a.defects, a.disorder_halfwidth, a.seed)

    close(spec, spec_from_json(doc))
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    close(spec, load_spec(p))


@given(l_j=st.floats(0.1e-9, 5e-9), c_g=st.floats(0.02e-12, 1e-12),
       c_i=st.floats(1e-15, 2e-12), ratio=st.floats(0.01, 0.9))
@settings(max_examples=50, deadline=None)
def test_spec_json_round_trip_property(l_j, c_g, c_i, ratio):
    cell = CellParams(l_j=l_j, c_g=c_g, c_i=c_i, c_j=ratio * c_g)
    spec = LineSpec(cell=cell, n_cells=100)
    back = spec_from_json(spec_to_json(spec))
    assert back.cell.l_j == pytest.approx(cell.l_j, rel=1e-12)
    assert back.cell.c_j == pytest.approx(cell.c_j, rel=1e-12)
    assert back.n_cells == 100


@given(l_j=st.floats(0.1e-9, 5e-9), c_g=st.floats(0.02e-12, 1e-12),
       c_i=st.floats(1e-15, 2e-12))
@settings(max_examples=50, deadline=None)
def test_sigma_faster_and_stiffer_whenever_coupled(l_j, c_g, c_i):
    cell = CellParams(l_j=l_j, c_g=c_g, c_i=c_i, c_j=0.1 * c_g)
    c = derive_constants(cell)
    assert c.v_sigma0 > c.v_delta0
    assert c.z_sigma > c.z_delta
    assert cutoff(Mode.Sigma, cell) > 0 and cutoff(Mode.Delta, cell) > 0
