import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from twpc import _g17
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


@pytest.mark.parametrize("entry", [(0, 4), (4, 0), (-1, 0), (True, 0),
                                   (0, 1.0), (0,), (0, 0, 0), 5, "00"])
def test_entry_outside_the_ports_is_refused(tmp_path, entry):
    # (0, 4) once read S[:, 1, 0], (4, 0) the next records' frequencies,
    # (-1, 0) one value, and (True, 0) was read as (1, 0)
    rng = np.random.default_rng(5)
    s = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    p = tmp_path / "t.s4p"
    write_touchstone(p, np.linspace(4e9, 8e9, 5), s, [50.0] * 4)
    with pytest.raises(ValueError, match="entry"):
        read_touchstone(p, entry=entry)
    for last in ((3, 3), (np.int64(3), np.int8(3)), [3, 3]):
        _, s33, _ = read_touchstone(p, entry=last)
        np.testing.assert_array_equal(s33.view(np.int64),
                                      s[:, 3, 3].copy().view(np.int64))


@pytest.mark.parametrize("z_ref", [[50.0] * 5, [50.0] * 3, [0, 50, 50, 50],
                                   [-50, 50, 50, 50], [math.nan, 50, 50, 50],
                                   [50, 50, 50, math.inf]],
                         ids=["five", "three", "zero", "negative", "nan",
                              "inf"])
def test_writer_rejects_references_its_reader_rejects(tmp_path, z_ref):
    # five wrote a Z0[5] comment and three were padded from the option
    # line; the rest were written, then refused by read_touchstone
    p = tmp_path / "t.s4p"
    with pytest.raises(ConfigError, match="z_ref"):
        write_touchstone(p, [5e9], np.eye(4)[None], z_ref)
    assert not p.exists()


def test_reader_names_a_non_number_it_parses(tmp_path):
    p = tmp_path / "t.s4p"
    write_touchstone(p, [5e9, 6e9], np.zeros((2, 4, 4)), [50.0] * 4)
    lines = p.read_text().splitlines()
    tokens = " ".join(lines[6:]).split()
    tokens[8 * 3 + 2 * 3 + 1] = "xyz"       # Re S44 of the first record
    p.write_text("\n".join(lines[:6] + [" ".join(tokens)]) + "\n")
    with pytest.raises(ConfigError, match="xyz"):
        read_touchstone(p)
    # a one-entry read parses f and its own column only
    f, s, _ = read_touchstone(p, entry=(0, 0))
    assert f.tolist() == [5e9, 6e9] and s.tolist() == [0j, 0j]
    tokens[0] = "abc"                       # the first frequency
    p.write_text("\n".join(lines[:6] + [" ".join(tokens)]) + "\n")
    with pytest.raises(ConfigError, match="abc"):
        read_touchstone(p, entry=(0, 0))
    lines[2] = "! Z0[2]=q50"                # and a reference impedance
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="q50"):
        read_touchstone(p, entry=(0, 0))


def _percent_records(rows):
    """The reference for _g17.records: one "%.17g" template per record."""
    line = " ".join(["%.17g"] * 8) + "\n"
    record = "%.17g " + line + (" " + line) * 3
    return (record * len(rows)) % tuple(rows.ravel().tolist())


def _records_of(values):
    """values cycled into whole 33-field records."""
    values = np.array(values, float)
    return np.resize(values, (-(-len(values) // 33), 33))


_bits = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


@pytest.mark.parametrize("exact", [True, False],
                         ids=["long-double", "percent-only"])
@given(values=st.lists(st.floats() | st.floats(-1e17, 1e17) | _bits,
                       min_size=1, max_size=99))
@settings(max_examples=100, deadline=None)
def test_records_match_percent_format(exact, values):
    rows = _records_of(values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_g17, "_EXACT", exact)
        assert _g17.records(rows) == _percent_records(rows)


def test_records_match_percent_format_on_sweep_like_blocks():
    # every exponent the long-double path takes, 256 records a block
    rng = np.random.default_rng(3)
    for scale in (rng.integers(-13, 18, (256, 33)), np.full((256, 33), -2)):
        rows = rng.normal(size=(256, 33)) * 10.0 ** scale
        rows[:, 0] = np.linspace(4e9, 8e9, 256) + rng.uniform(0, 1, 256)
        assert _g17.records(rows) == _percent_records(rows)


_EDGES = [0.0, math.inf, math.nan, 5e-324, 2.225073858507201e-308,
          2.2250738585072014e-308,          # largest subnormal, least normal
          1234567890123456.25,              # a tie, rounded to even
          0.2826205769921646, 15567.887634073672, 84279.10602700361,
          6174576404.461171,                # 17 digits within 0.01 of a tie
          *[np.nextafter(p, q) for p in (1e-4, 1e16, 1e17, 1e-11, 1e-12)
            for q in (0, math.inf)], 1e-4, 1e16, 1e17, 1e-11, 1e-12,
          *[float(f"{m}e{k}") for k in range(-13, 19)
            for m in (0.98, 0.99999, 1.0, 1.00001, 1.02, 3.0)]]


@pytest.mark.parametrize("exact", [True, False],
                         ids=["long-double", "percent-only"])
@pytest.mark.parametrize("bias", [0.0, 0.01, -0.01])
def test_records_edge_values(monkeypatch, exact, bias):
    # a log10 biased by 0.01 puts floor(log10|x|) one off within 2.3 % of
    # each power of ten
    rows = _records_of(_EDGES + [-x for x in _EDGES])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + bias)
    monkeypatch.setattr(_g17, "_EXACT", exact)
    assert _g17.records(rows) == _percent_records(rows)


def _read_touchstone_streaming(path, entry=None):
    """Reference reader: the line-streaming reader read_touchstone replaced;
    a non-number it parses raised ValueError."""
    z_ref, opts = [None] * 4, None

    def is_data(line):
        nonlocal opts
        line = line.strip()
        if not line.startswith(("!", "#")):
            return True
        body = line[1:].strip()
        if line[0] == "#":
            opts = body.split()
        elif body.startswith("Z0["):
            k = int(body[3:body.index("]")])
            if not 1 <= k <= 4:
                raise ConfigError([("", f"Z0[{k}] names no port 1-4")])
            z_ref[k - 1] = float(body.partition("=")[2])
        return False

    i = 1 if entry is None else 8 * entry[0] + 2 * entry[1] + 1
    j = 33 if entry is None else i + 2
    f, s = [], []
    with open(path) as fh:
        tokens = itertools.chain.from_iterable(
            map(str.split, filter(is_data, fh)))
        for record in itertools.zip_longest(*[tokens] * 33):
            if record[-1] is None:
                raise ConfigError([("", "malformed 4-port data block")])
            f.append(float(record[0]))
            s.extend(map(float, record[i:j]))
    if opts is None:
        raise ConfigError([("", "missing option line")])
    up = [o.upper() for o in opts]
    if "HZ" not in up or "S" not in up or "RI" not in up or up[-1] == "R":
        raise ConfigError([("", "unsupported option line")])
    r_opt = float(opts[up.index("R") + 1]) if "R" in up else 50.0
    if any(z is not None and not 0 < z < math.inf for z in (r_opt, *z_ref)):
        raise ConfigError([("", "reference impedance")])
    s = np.array(s, float).view(complex)
    return (np.array(f, float), s.reshape(-1, 4, 4) if entry is None else s,
            np.array([r_opt if z is None else z for z in z_ref]))


_LINES = ["\t! a comment", "\t# Hz S RI R 42", " \t# hz s ri", "", " \t",
          "\t! Z0[0]=50", "! Z0[5]=50", "\t ! Z0[2]=33.5"]


@given(nf=st.integers(1, 3),
       inserts=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(_LINES)),
                        max_size=4),
       bang=st.none() | st.integers(0, 30), short=st.integers(0, 7),
       newline=st.sampled_from(["\n", "\r\n", "\r"]),
       entry=st.none() | st.tuples(st.integers(0, 3), st.integers(0, 3)))
@settings(max_examples=60, deadline=None)
def test_reader_matches_streaming_reader(tmp_path_factory, nf, inserts, bang,
                                         short, newline, entry):
    # comment and option lines between records, blank lines, CRLF or CR
    # line ends, a "!" inside a line and a short last record: the same
    # bits, or ConfigError
    rng = np.random.default_rng(nf)
    p = tmp_path_factory.mktemp("rewrite") / "t.s4p"
    write_touchstone(p, np.linspace(4e9, 8e9, nf),
                     rng.normal(size=(nf, 4, 4)) - 1e-7j, [50, 25, 50, 25])
    lines = p.read_text().splitlines()
    if short:
        lines[-1] = " ".join(lines[-1].split()[:-short])
    if bang is not None:
        lines[bang % len(lines)] += " ! not a comment"
    for at, line in inserts:
        lines.insert(at % (len(lines) + 1), line)
    p.write_bytes((newline.join(lines) + newline).encode())
    try:
        want = _read_touchstone_streaming(p, entry)
    except (ConfigError, ValueError):   # now ConfigError, whatever the fault
        with pytest.raises(ConfigError):
            read_touchstone(p, entry)
        return
    for w, g in zip(want, read_touchstone(p, entry)):
        assert w.shape == g.shape
        np.testing.assert_array_equal(w.view(np.int64), g.view(np.int64))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=repr)
def test_reader_matches_streaming_reader_across_pieces(tmp_path, newline):
    # 100 records fill pieces of about 16 KiB; comment and option lines and
    # records split across a piece boundary land in later pieces
    rng = np.random.default_rng(5)
    p = tmp_path / "t.s4p"
    write_touchstone(p, np.linspace(4e9, 8e9, 100),
                     rng.normal(size=(100, 4, 4)) + 1j, [50, 25, 50, 25])
    lines = p.read_text().splitlines()
    for at in (390, 230, 97):
        lines[at:at] = ["\t! Z0[2]=33.5", " # Hz S RI R 42", ""]
    p.write_bytes((newline.join(lines) + newline).encode())
    assert p.stat().st_size > 2 * (1 << 14)
    for entry in (None, (1, 2)):
        want = _read_touchstone_streaming(p, entry)
        for w, g in zip(want, read_touchstone(p, entry)):
            np.testing.assert_array_equal(w.view(np.int64), g.view(np.int64))
