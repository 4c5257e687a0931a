"""The library's entry points import with numpy and scipy alone: CI installs
nothing else (``pip install numpy scipy pytest pytest-cov hypothesis``)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# In the child, every top-level import that resolves into site-packages,
# numpy and scipy aside, raises ImportError, as it would where only CI's
# install line ran.
_CHILD = textwrap.dedent("""
    import importlib
    import importlib.machinery
    import site
    import sys

    ALLOWED = {"numpy", "scipy"}
    SITE = (*site.getsitepackages(), site.getusersitepackages())

    class BlockThirdParty:
        def find_spec(self, name, path=None, target=None):
            if "." in name or name in ALLOWED:
                return None
            spec = importlib.machinery.PathFinder.find_spec(name, path)
            if spec is None:
                return None
            places = [spec.origin] if spec.origin else list(
                spec.submodule_search_locations or ()
            )
            if any(str(place).startswith(SITE) for place in places):
                raise ImportError(f"third-party import blocked: {name}")
            return None

    sys.meta_path.insert(0, BlockThirdParty())
    for module in sys.argv[1:]:
        importlib.import_module(module)
""")


def test_entry_points_import_with_numpy_and_scipy_only():
    modules = ["repro", "repro.cli", "repro.serving", "repro.lifecycle",
               "repro.experiments"]
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, *modules],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
