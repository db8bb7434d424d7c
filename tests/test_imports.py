"""What importing fpplab loads, checked in a fresh interpreter.

The test session itself imports scipy.stats (tests/test_lpp.py), so only a
new process shows what the package pulls in on its own.  scipy.special is
imported by the torus summaries when they first need it, not at start-up.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_modules(statement: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"{statement}\nimport sys\nprint('\\n'.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


@pytest.mark.parametrize("module", ["fpplab", "fpplab.cli"])
def test_import_does_not_load_scipy_stats(module):
    mods = _loaded_modules(f"import {module}")
    assert module in mods
    assert [m for m in mods if m == "scipy.stats" or m.startswith("scipy.stats.")] == []


@pytest.mark.parametrize("module", ["fpplab", "fpplab.cli"])
def test_import_does_not_load_scipy_special(module):
    mods = _loaded_modules(f"import {module}")
    assert module in mods
    assert [m for m in mods if m == "scipy.special" or m.startswith("scipy.special.")] == []


def test_star_import_resolves_every_public_name():
    # a name deleted from the package but left in __all__ fails here
    mods = _loaded_modules(
        "from fpplab import *\nimport fpplab\n"
        "missing = [n for n in fpplab.__all__ if n not in globals()]\n"
        "assert not missing, missing"
    )
    assert "fpplab" in mods
