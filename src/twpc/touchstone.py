"""Minimal Touchstone v1.1 writer/reader for 4-port S-parameter sweeps.

Format: `# Hz S RI R <ref>` option line; per frequency, four data lines of
four real/imaginary pairs in row order S11..S14 / S21..S24 / ...  The
Touchstone v1 option line carries a single reference resistance, so the
actual per-port references are recorded in `! Z0[k]=` comments and
recovered by the bundled reader.  Numeric fields use 17 significant
digits and round-trip bit-exactly.
"""

from __future__ import annotations

import array
import functools
from math import inf

import numpy as np

from .errors import ConfigError


@functools.cache
def _cell_words():
    """Four-byte words "0000"..."9999", "0."..."-9." and "e-99"..."e+99"
    for cli._fmt_rows and _g17, and 10**0...10**22, exact in float64."""
    digits = (np.arange(10000, dtype=np.int16)[:, None]
              // np.int16([1000, 100, 10, 1]) % 10 + ord("0"))
    heads, exps = (np.array(w, "S4").view(np.uint32) for w in (
        [f"{s}{d}." for s in ("", "-") for d in range(10)],
        [f"e{e:+03d}" for e in range(-99, 100)]))
    return (digits.astype(np.uint8).view(np.uint32)[:, 0], heads, exps,
            np.array([float(10 ** k) for k in range(23)]))


def write_touchstone(path, f_hz, s, z_ref) -> None:
    """Write a 4-port sweep: f_hz (nf,), s (nf, 4, 4), z_ref (4,) > 0."""
    from ._g17 import records   # compiled at the first write, not at import
    f_hz = np.asarray(f_hz, float)
    s = np.ascontiguousarray(s, complex)
    z_ref = [float(z) for z in z_ref]
    if s.shape != (len(f_hz), 4, 4):
        raise ConfigError([("s", f"expected (nf, 4, 4), got {s.shape}")])
    if len(z_ref) != 4 or not all(0 < z < inf for z in z_ref):  # also NaN
        raise ConfigError([("z_ref", f"need 4 finite positive: {z_ref}")])
    # one frequency: f, then the 32 RI fields of S, eight to a line
    rows = np.column_stack([f_hz, s.view(float).reshape(len(f_hz), 32)])
    with open(path, "w") as fh:
        fh.write("! 4-port S-parameters, twpc chain model\n")
        for k, z in enumerate(z_ref):
            fh.write(f"! Z0[{k + 1}]={z:.17g}\n")
        fh.write(f"# Hz S RI R {z_ref[0]:.17g}\n")
        for i in range(0, len(rows), 64):     # under 1 MiB of arrays at once
            fh.write(records(rows[i:i + 64]))


def read_touchstone(path, entry=None):
    """Read a 4-port RI Touchstone file written by write_touchstone.

    Returns (f_hz, s, z_ref), s (nf, 4, 4) or, for entry=(q, p), only
    S[:, q, p], the one S column parsed; z_ref comes from the `! Z0[k]=`
    comments, falling back to the option-line resistance for all ports.
    """
    z_ref, opts, rest = [None] * 4, None, []

    def is_data(line):
        nonlocal opts
        line = line.decode().strip()
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

    # 33 tokens per frequency, however the lines break: f, then the RI
    # fields of S row by row, so S[q, p] starts at token 8 q + 2 p + 1
    i = 1 if entry is None else 8 * entry[0] + 2 * entry[1] + 1
    columns = range(i, 33 if entry is None else i + 2)
    f, s = array.array("d"), array.array("d")
    try:
        with open(path, "rb") as fh:
            while lines := fh.readlines(1 << 14):   # ~16 KiB of lines
                piece = b"".join(lines)
                if b"!" in piece or b"#" in piece:  # comment or option lines
                    piece = b" ".join(filter(is_data, piece.splitlines()))
                tok = rest + piece.split()
                cut = len(tok) - len(tok) % 33
                tok, rest = tok[:cut], tok[cut:]
                f.extend(map(float, tok[::33]))
                s.extend(map(float, [t for record in zip(
                    *(tok[c::33] for c in columns)) for t in record]))
        if rest:
            raise ConfigError([("", "malformed 4-port data block")])
        if opts is None:
            raise ConfigError([("", "missing option line")])
        up = [o.upper() for o in opts]
        if "HZ" not in up or "S" not in up or "RI" not in up or up[-1] == "R":
            raise ConfigError([("", "unsupported option line: "
                                    + " ".join(opts))])
        r_opt = float(opts[up.index("R") + 1]) if "R" in up else 50.0
    except ValueError as exc:   # a number that does not parse, named
        raise ConfigError([("", f"malformed Touchstone file: {exc}")]
                          ) from None
    bad = [z for z in (r_opt, *z_ref) if z is not None and not 0 < z < inf]
    if bad:     # also NaN
        raise ConfigError([("", f"reference impedance {bad[0]!r} is not "
                                "finite and positive")])
    z_ref = [r_opt if z is None else z for z in z_ref]

    s = np.frombuffer(s).view(complex)
    s = s.reshape(-1, 4, 4) if entry is None else s
    return np.frombuffer(f), s, np.array(z_ref)
