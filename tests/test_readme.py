"""The README's Library example runs as printed and shows what it says.

The fenced block under ``## Library`` is run in a fresh interpreter with
only ``src`` on the path, so it imports the package as a reader would, and
the values that its comments state are checked in the same process.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import galilei

SRC = Path(galilei.__file__).parent.parent
README = SRC.parent / "README.md"

# The values that the block's comments state, as JSON.
CHECK = """
import json
print(json.dumps({
    "f_enum": f_enum(4, 0, 8).coeffs[:5],
    "structure": detect_invariant_structure(5),
    "tensor": sorted(map(str, hc_tensor(3, V(3)).elements())),
    "layers": [sorted(map(str, layer.elements())) for layer in radical_filtration(Vp(0), 3)],
}))
"""


def library_block():
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs_and_shows_its_values():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", library_block() + CHECK], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    values = json.loads(out.stdout)
    assert values["f_enum"] == [1, 1, 3, 5, 8]
    assert values["structure"] == [[4, 8, 12, 18], 36]
    assert values["tensor"] == sorted(["V'(0)", "V'(2)", "V(2)", "V(4)", "V(6)"])
    assert values["layers"] == [["V'(0)"], ["V(4)"], ["V(8)"], ["V(12)"]]
