import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from twpc.errors import ConfigError
from twpc.touchstone import read_touchstone, write_touchstone

GHZ = 2e9 * math.pi


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    f = np.linspace(4e9, 8e9, 7)
    s = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
    z = [85.0, 27.205, 85.0, 27.205]
    p = tmp_path / "t.s4p"
    write_touchstone(p, f, s, z)
    f2, s2, z2 = read_touchstone(p)
    np.testing.assert_array_equal(f, f2)
    np.testing.assert_array_equal(s, s2)
    np.testing.assert_array_equal(z, z2)


def test_shape_validation(tmp_path):
    with pytest.raises(ConfigError):
        write_touchstone(tmp_path / "t.s4p", np.arange(3.0),
                         np.zeros((2, 4, 4)), [50] * 4)


def test_option_line_and_comments(tmp_path):
    p = tmp_path / "t.s4p"
    write_touchstone(p, [5e9], np.eye(4)[None], [85, 27, 85, 27])
    lines = p.read_text().splitlines()
    opt = [ln for ln in lines if ln.startswith("#")]
    assert len(opt) == 1 and opt[0].split()[1:4] == ["Hz", "S", "RI"]
    assert sum(ln.startswith("! Z0[") for ln in lines) == 4


def test_reader_defaults_reference_from_option_line(tmp_path):
    p = tmp_path / "t.s4p"
    rows = ["# HZ S RI R 42.5"]
    for i in range(4):
        vals = ["5e9"] if i == 0 else []
        vals += ["1" if (2 * j == i * 2) and False else "0" for j in range(8)]
        rows.append(" ".join(vals))
    p.write_text("\n".join(rows) + "\n")
    f, s, z = read_touchstone(p)
    np.testing.assert_array_equal(z, [42.5] * 4)
    assert f[0] == 5e9


def test_malformed_data_rejected(tmp_path):
    p = tmp_path / "t.s4p"
    p.write_text("# Hz S RI R 50\n1e9 0 0 0\n")
    with pytest.raises(ConfigError):
        read_touchstone(p)


def _write_touchstone_per_field(path, f_hz, s, z_ref):
    """Reference writer: one f-string per field, one write per line."""
    f_hz = np.asarray(f_hz, float)
    s = np.asarray(s, complex)
    z_ref = [float(z) for z in z_ref]
    with open(path, "w") as fh:
        fh.write("! 4-port S-parameters, twpc chain model\n")
        for k, z in enumerate(z_ref):
            fh.write(f"! Z0[{k + 1}]={z:.17g}\n")
        fh.write(f"# Hz S RI R {z_ref[0]:.17g}\n")
        for i, f in enumerate(f_hz):
            for row in range(4):
                fields = [] if row else [f"{f:.17g}"]
                for col in range(4):
                    fields.append(f"{s[i, row, col].real:.17g}")
                    fields.append(f"{s[i, row, col].imag:.17g}")
                fh.write((" " if row else "") + " ".join(fields) + "\n")


_EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308,
             -1.7976931348623157e308, 1.0, -1.0 / 3.0, math.inf, math.nan]


@pytest.mark.parametrize("case", ["random", "extremes"])
def test_writer_matches_per_field_oracle(tmp_path, case):
    rng = np.random.default_rng(5)
    if case == "random":
        f = np.sort(rng.uniform(1e9, 1e10, 23))
        s = (rng.normal(size=(23, 4, 4)) + 1j * rng.normal(size=(23, 4, 4))
             ) * 10.0 ** rng.integers(-8, 8, size=(23, 4, 4))
        z = rng.uniform(10.0, 100.0, 4)
    else:
        vals = np.array(_EXTREMES)
        f = rng.choice(vals, 9)
        s = np.empty((9, 4, 4), complex)
        s.real, s.imag = rng.choice(vals, (2, 9, 4, 4))
        s[0] = complex(-0.0, -0.0)
        z = [5e-324, 1e-300, 1.7976931348623157e308, 50]
    write_touchstone(tmp_path / "new.s4p", f, s, z)
    _write_touchstone_per_field(tmp_path / "old.s4p", f, s, z)
    assert ((tmp_path / "new.s4p").read_bytes()
            == (tmp_path / "old.s4p").read_bytes())


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(f=hnp.arrays(float, st.integers(1, 6), elements=_finite),
       re=hnp.arrays(float, 6 * 16, elements=_finite),
       im=hnp.arrays(float, 6 * 16, elements=_finite))
@settings(max_examples=60, deadline=None)
def test_round_trip_bit_exact_for_any_finite_values(tmp_path_factory, f,
                                                    re, im):
    s = np.empty((len(f), 4, 4), complex)   # parts set apart keep -0.0
    s.real.flat, s.imag.flat = re, im
    p = tmp_path_factory.mktemp("rt") / "t.s4p"
    write_touchstone(p, f, s, [50.0] * 4)
    f2, s2, _ = read_touchstone(p)
    np.testing.assert_array_equal(f.view(np.int64), f2.view(np.int64))
    np.testing.assert_array_equal(s.view(np.int64), s2.view(np.int64))


def _reflow(path, widths):
    """The same file with its data tokens re-broken into lines of the given
    widths (cycled) and a comment after the first data line: the reader
    counts tokens, not lines."""
    lines = path.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith(("!", "#"))]
    tokens = " ".join(ln for ln in lines if ln not in head).split()
    body, k = [], 0
    for width in itertools.cycle(widths):
        if k >= len(tokens):
            break
        body.append("\t".join(tokens[k:k + width]))
        k += width
    body.insert(1, "  ! a comment inside the data")
    path.write_text("\n".join(head + body) + "\n")


_any = st.one_of(st.sampled_from(_EXTREMES), st.floats(),
                 st.floats(min_value=-1e-300, max_value=1e-300))


@given(f=hnp.arrays(float, st.integers(1, 5), elements=_any),
       re=hnp.arrays(float, 5 * 16, elements=_any),
       im=hnp.arrays(float, 5 * 16, elements=_any),
       widths=st.lists(st.integers(1, 40), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_one_entry_read_equals_full_read(tmp_path_factory, f, re, im,
                                         widths):
    s = np.empty((len(f), 4, 4), complex)   # parts set apart keep -0.0
    s.real.flat, s.imag.flat = re[:s.size], im[:s.size]
    p = tmp_path_factory.mktemp("entry") / "t.s4p"
    write_touchstone(p, f, s, [50.0, 25.0, 50.0, 25.0])
    f_full, s_full, z_full = read_touchstone(p)
    _reflow(p, widths)
    f_flow, s_flow, z_flow = read_touchstone(p)
    np.testing.assert_array_equal(f_flow.view(np.int64),
                                  f_full.view(np.int64))
    np.testing.assert_array_equal(s_flow.view(np.int64),
                                  s_full.view(np.int64))
    np.testing.assert_array_equal(z_flow, z_full)
    for q, port in itertools.product(range(4), repeat=2):
        f_one, s_one, z_one = read_touchstone(p, entry=(q, port))
        assert s_one.shape == (len(f),)
        np.testing.assert_array_equal(f_one.view(np.int64),
                                      f_full.view(np.int64))
        np.testing.assert_array_equal(
            s_one.view(np.int64), s_full[:, q, port].copy().view(np.int64))
        np.testing.assert_array_equal(z_one, z_full)
