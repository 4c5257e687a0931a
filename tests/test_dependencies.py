"""The library's entry points import with numpy and scipy alone: CI installs
nothing else (``pip install numpy scipy pytest pytest-cov hypothesis``).
Serving a model imports the serving stack and the model's core, nothing
else."""

import json
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
        module = importlib.import_module(module)
        for name in getattr(module, "__all__", ()):
            getattr(module, name)  # lazy exports load their submodule here
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


# What `repro serve` loads: the package, the CLI and the serving stack,
# then one Nystrom KernelPFR artifact read and applied. The experiment
# stack, the baselines, the datasets, scipy.optimize and the k-NN tree
# (scipy.spatial) stay out until a caller needs them; then every export
# resolves and dir() lists it.
_SERVE = textwrap.dedent("""
    import json
    import sys

    import numpy as np

    import repro
    import repro.cli
    import repro.serving
    from repro.io import load_model

    model = load_model(sys.argv[1])
    Z = model.transform(np.load(sys.argv[2]))
    loaded = [name for name in (
        "repro.experiments", "repro.baselines", "repro.datasets",
        "repro.metrics", "scipy.optimize", "scipy.spatial",
    ) if name in sys.modules]

    import repro.ml
    unresolved = [
        f"{module.__name__}.{name}"
        for module in (repro, repro.ml)
        for name in module.__all__
        if getattr(module, name, None) is None or name not in dir(module)
    ]
    print(json.dumps({"loaded": loaded, "unresolved": unresolved,
                      "Z": Z.tolist()}))
""")


def test_serving_path_imports_only_the_serving_stack(tmp_path):
    import numpy as np

    from repro import KernelPFR, save_model
    from repro.graphs import knn_graph

    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 4))
    model = KernelPFR(n_components=2, gamma=0.5, extension="nystrom",
                      landmarks=20).fit(X, knn_graph(X[:, :1], n_neighbors=5))
    artifact = save_model(model, tmp_path / "kpfr")
    rows = tmp_path / "rows.npy"
    np.save(rows, X[:8])
    result = subprocess.run(
        [sys.executable, "-c", _SERVE, str(artifact), str(rows)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["loaded"] == []
    assert report["unresolved"] == []
    assert report["Z"] == model.transform(X[:8]).tolist()
