"""The package imports nothing but the standard library, numpy and scipy,
the two runtime dependencies pyproject.toml declares, no module of the
package or its tests imports a name it never uses, and the CLI runs
without importing scipy.optimize, scipy.sparse or scipy.special, and its
commands that solve no banded system without scipy.linalg."""

import ast
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "twpc"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy"}


def _imports(path):
    """(file name, dotted module name) of every absolute import in path,
    also those inside functions or try blocks; "from a import b" gives
    both a and a.b, as b may be a module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        yield from ((path.name, name) for name in names)


def test_src_imports_only_stdlib_numpy_scipy():
    found = {(name, module.split(".")[0])
             for path in sorted(SRC.glob("*.py"))
             for name, module in _imports(path)}
    assert {"numpy", "scipy"} <= {pkg for _, pkg in found}
    assert sorted(imp for imp in found if imp[1] not in ALLOWED) == []


def test_src_imports_no_scipy_special():
    """The junction's Bessel functions J0 and J1 are computed in
    dispersion (harmonic balance takes its describing function from
    there), so no module imports scipy.special."""
    found = {name for path in sorted(SRC.glob("*.py"))
             for name, module in _imports(path)
             if (module + ".").startswith("scipy.special.")}
    assert found == set()


def _unused_imports(path):
    """Names that path imports at any depth and never reads or rebinds."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    """Every module in src/twpc and tests uses each name it imports; the
    package's __init__ is exempt, as its imports are the public API."""
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = {path.name: _unused_imports(path) for path in paths
             if path != SRC / "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}


_CLI_RUNS = """
import sys
from twpc.cli import main
runs = [
    ["gaps-map"],
    ["phase-match", "--process", "Ci", "--f-pump", "3", "--pump-flux", "0.06"],
    ["envelope", "--f-pump", "3", "--pump-flux", "0.05"],
    ["scatter", "--points", "3"],
    ["nld-sim", "--f-pump", "3", "--f-probe", "7.1", "--pump-flux", "0.05"],
    ["nld-map", "--pump-points", "1", "--pump-flux", "0.05"],
    ["dispersion"],
    ["isolate", "--f-pump", "4.63", "--eps-points", "2"],
]
for i, argv in enumerate(runs):
    assert main(argv + ["--out-dir", f"{sys.argv[1]}/{i}"]) == 0, argv
print(sorted(m for m in sys.modules
             if m.startswith(("scipy.optimize", "scipy.sparse",
                              "scipy.special"))))
"""


def test_cli_runs_without_scipy_optimize_sparse_or_special(tmp_path):
    """Importing scipy.optimize costs about 0.2 s of every start-up and
    scipy.special about 0.05 s over scipy.linalg; the package solves its
    roots and its Bessel functions in-house, and its banded operators
    need no sparse matrices, so no CLI path may import any of the
    three."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", _CLI_RUNS, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


_DESIGN_RUNS = """
import json, sys
out = sys.argv[1]
import twpc.cli
from twpc import device
spec = f"{out}/defect.json"
with open(spec, "w") as fh:
    json.dump(device.spec_to_json(device.fitted_line(
        defects=((165, "open_junction"),))), fh)
def state():
    return ("scipy.linalg" in sys.modules, "twpc._g17" in sys.modules)
loaded = [state()]
runs = [
    ["dispersion"],
    ["phase-match", "--process", "Ci", "--f-pump", "3", "--pump-flux", "0.06"],
    ["gaps-map"],
    ["envelope", "--f-pump", "3", "--pump-flux", "0.05"],
    ["isolate", "--f-pump", "4.63", "--eps-points", "2"],
    ["isolate", "--spec", spec, "--f-pump", "4.63", "--eps-points", "2"],
    ["scatter", "--points", "16"],
    ["tdr", "--input", f"{out}/6/sweep.s4p"],
    ["reproduce-fig", "2"],
    ["reproduce-fig", "3b"],
    ["reproduce-fig", "S4"],
]
for i, argv in enumerate(runs):
    assert twpc.cli.main(argv + ["--out-dir", f"{out}/{i}"]) == 0, argv
    loaded.append(state())
assert twpc.cli.main(["nld-sim", "--f-pump", "3", "--f-probe", "7.1",
                      "--pump-flux", "0.05", "--out-dir", f"{out}/sim"]) == 0
loaded.append(state())
print(loaded)
"""


def test_design_commands_run_without_scipy_linalg(tmp_path):
    """scipy.linalg is most of a command's start-up (import twpc.cli
    loads 556 modules with it, 238 without), and only banded solves
    (network._solve) need it: importing the CLI, the design commands,
    isolate on the defect-free line and on an open junction at cell 165
    (whose S-matrices come from scattering_sweep), scatter, tdr and
    figures 2, 3b and S4 leave it unloaded, and the first nld-sim loads
    it.  The Touchstone field kernel twpc._g17 stays unloaded until
    scatter, the first command that writes a Touchstone file."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", _DESIGN_RUNS, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str([(False, False)] * 7
                                     + [(False, True)] * 5 + [(True, True)])
