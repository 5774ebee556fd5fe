"""Minimal Touchstone v1.1 writer/reader for 4-port S-parameter sweeps.

Format: `# Hz S RI R <ref>` option line; per frequency, four data lines of
four real/imaginary pairs in row order S11..S14 / S21..S24 / ...  The
Touchstone v1 option line carries a single reference resistance, so the
actual per-port references are recorded in `! Z0[k]=` comments and
recovered by the bundled reader.  Numeric fields use 17 significant
digits and round-trip bit-exactly.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ConfigError


def write_touchstone(path, f_hz, s, z_ref) -> None:
    """Write a 4-port sweep: f_hz (nf,), s (nf, 4, 4), z_ref (4,)."""
    f_hz = np.asarray(f_hz, float)
    s = np.ascontiguousarray(s, complex)
    z_ref = [float(z) for z in z_ref]
    if s.shape != (len(f_hz), 4, 4):
        raise ConfigError([("s", f"expected (nf, 4, 4), got {s.shape}")])
    # one frequency: f, then the 32 RI fields of S, eight to a line
    line = " ".join(["%.17g"] * 8) + "\n"
    record = "%.17g " + line + (" " + line) * 3
    rows = np.column_stack([f_hz, s.view(float).reshape(len(f_hz), 32)])
    with open(path, "w") as fh:
        fh.write("! 4-port S-parameters, twpc chain model\n")
        for k, z in enumerate(z_ref):
            fh.write(f"! Z0[{k + 1}]={z:.17g}\n")
        fh.write(f"# Hz S RI R {z_ref[0]:.17g}\n")
        fh.writelines(record % tuple(row) for row in rows.tolist())


def read_touchstone(path):
    """Read a 4-port RI Touchstone file written by write_touchstone.

    Returns (f_hz, s, z_ref); z_ref comes from the `! Z0[k]=` comments,
    falling back to the option-line resistance for all ports.
    """
    z_ref = [None] * 4
    opts = None

    def data_lines(fh):
        nonlocal opts
        for line in fh:
            line = line.strip()
            if line.startswith("!"):
                body = line[1:].strip()
                if body.startswith("Z0["):
                    k = int(body[3:body.index("]")]) - 1
                    z_ref[k] = float(body.split("=", 1)[1])
            elif line.startswith("#"):
                opts = line[1:].split()
            else:
                yield line

    with open(path) as fh:
        numbers = np.fromiter(map(float, itertools.chain.from_iterable(
            map(str.split, data_lines(fh)))), float)
    if opts is None:
        raise ConfigError([("", "missing option line")])
    up = [o.upper() for o in opts]
    if "HZ" not in up or "S" not in up or "RI" not in up:
        raise ConfigError([("", f"unsupported option line: {' '.join(opts)}")])
    r_opt = float(opts[up.index("R") + 1]) if "R" in up else 50.0
    z_ref = [r_opt if z is None else z for z in z_ref]

    if len(numbers) % 33:       # f and 32 RI fields per frequency
        raise ConfigError([("", "malformed 4-port data block")])
    data = numbers.reshape(-1, 33)
    s = np.ascontiguousarray(data[:, 1:]).view(complex).reshape(-1, 4, 4)
    return data[:, 0], s, np.array(z_ref)
