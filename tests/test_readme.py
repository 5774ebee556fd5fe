"""The README's Python quick start runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                          re.M | re.S)
    exec(compile(block, str(README), "exec"), {"__name__": "quick_start"})
    gap, envelope, circuit = capsys.readouterr().out.splitlines()
    assert gap.startswith("gap center ") and gap.endswith(" GHz")
    assert float(envelope.split()[0]) < 0
    assert circuit.startswith("forward ") and "backward" in circuit
