"""Execute the doctests embedded in public docstrings, check doc links, and
keep names that nothing but the tests calls out of every ``__all__`` of the
library and out of the classes those export."""

import ast
import doctest
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

import repro.core.approx
import repro.core.pfr
import repro.datasets.synthetic
import repro.exceptions


@pytest.mark.parametrize(
    "module",
    [
        repro.core.approx,
        repro.core.pfr,
        repro.datasets.synthetic,
        repro.exceptions,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, raise_on_error=False, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module.__name__}"


ROOT = Path(__file__).resolve().parents[1]


def test_markdown_references_resolve():
    # Every *.md file named in the library, the tests, the README or the CI
    # workflow exists, at the repository root or relative to the naming
    # file; so does every script or data file named under benchmarks/,
    # examples/ or perfbench/.
    sources = [ROOT / "README.md", ROOT / ".github" / "workflows" / "ci.yml",
               *(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    pattern = re.compile(
        r"[\w./-]*\w\.md\b"
        r"|(?<![\w/])(?:benchmarks|examples|perfbench)/[\w./-]*\.(?:py|json|yaml)\b"
    )
    missing = []
    for source in sources:
        text = source.read_text(encoding="utf-8")
        for name in set(pattern.findall(text)):
            if not ((ROOT / name).exists() or (source.parent / name).exists()):
                missing.append(f"{source.relative_to(ROOT)}: {name}")
    assert not missing, missing


# Exports kept with no caller outside tests/, each for a stated reason,
# keyed by the deepest module exporting them.
_TEST_ONLY_EXPORTS = {
    "repro.ml.metrics.roc_curve":
        "reference curve for roc_auc_score's trapezoid-area test",
    "repro.graphs.knn.pairwise_sq_distances":
        "reference the k-NN distance kernels are tested against",
    "repro.graphs.laplacian.combine_laplacians":
        "reference the plan's degree rescaling is tested against",
    "repro.serving.cache.row_digest":
        "reference the cache's block row keys are tested against",
    "repro.obs.metrics.set_registry":
        "tests isolate the process-global metrics registry with it",
    "repro._blas.set_threads": "test_blas.py flips numpy's pool with it",
    "repro.datasets.crime.load_crime":
        "reads the paper's real UCI file, which does not ship",
}

_CALLER_DIRS = ("src", "examples", "perfbench", "benchmarks")


def _source_module(path):
    # Dotted module name of a file under src/, None elsewhere.
    if ROOT / "src" not in path.parents:
        return None
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _callers():
    # What the library, examples and bench scripts use, as
    # (identifiers loaded anywhere, {file module: identifiers it loads},
    #  (imported module, name, importing file's module) triples,
    #  attribute names loaded anywhere as ``.name``).
    # Definitions and __all__ strings load nothing.
    loaded, loaded_in, imports, attributes = set(), {}, set(), set()
    for directory in _CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            here = _source_module(path)
            names = loaded_in.setdefault(here, set())
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                    if isinstance(node.ctx, ast.Load):
                        attributes.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    module = node.module
                    if node.level:
                        package = here.split(".")
                        if path.name != "__init__.py":
                            package.pop()
                        package = package[:len(package) - node.level + 1]
                        module = ".".join(package + ([module] if module else []))
                    imports.update((module, alias.name, here) for alias in node.names)
            loaded |= names
    return loaded, loaded_in, imports, attributes


def _doc_words():
    # Every word of the README, the paper record and the CI workflow.
    words = set()
    for doc in ("README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"):
        words.update(re.findall(r"\w+", (ROOT / doc).read_text(encoding="utf-8")))
    return words


def _exports():
    # {exported object's key: (name, modules exporting it)} over every
    # __all__ under src/repro; the key is the deepest exporting module.
    import importlib
    import pkgutil

    import repro

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")
    ]
    by_object = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            entry = by_object.setdefault((name, id(getattr(module, name))), set())
            entry.add(module.__name__)
    return {
        f"{max(owners, key=lambda m: (m.count('.'), m))}.{name}": (name, owners)
        for (name, _), owners in by_object.items()
    }


def test_exports_have_callers():
    # Dead surface stays out: every name an __all__ under src/repro exports
    # is used somewhere besides tests/, or is listed above with a reason.
    # A use is a load of the name, a word of the README, the paper record
    # or the CI workflow, or an import by a module that does not re-export
    # it. A name two modules export as different objects (the two
    # default_store_root) counts only where it is imported from one of its
    # own modules, or loaded inside one of them.
    loaded, loaded_in, imports, _ = _callers()
    words = _doc_words()
    exports = _exports()
    shared = Counter(name for name, _ in exports.values())

    def called(name, owners):
        if any(module in owners and imported == name and here not in owners
               for module, imported, here in imports):
            return True
        if any(name in loaded_in.get(module, ()) for module in owners):
            return True
        return shared[name] == 1 and (name in loaded or name in words or any(
            imported == name and here not in owners
            for _, imported, here in imports
        ))

    uncalled = sorted(key for key, (name, owners) in exports.items()
                      if not called(name, owners))
    flagged = sorted(set(uncalled) - set(_TEST_ONLY_EXPORTS))
    assert not flagged, f"exported but called only from tests: {flagged}"
    stale = sorted(set(_TEST_ONLY_EXPORTS) - set(uncalled))
    assert not stale, f"exemptions no longer needed: {stale}"


# Public methods and properties kept with no caller outside tests/, each
# for a stated reason, keyed as the exported class's key plus the name.
_TEST_ONLY_METHODS = {
    "repro.core.pfr.PFR.objective_value":
        "the Eq. 3-4 objective the optimality tests evaluate",
    "repro.obs.metrics.MetricsRegistry.gauge_value":
        "the tests read a gauge back through it",
}


def test_methods_have_callers():
    # The same guard one level down: every public method or property that
    # a class in an __all__ under src/repro defines itself is loaded as an
    # attribute (``.name``) somewhere besides tests/, or is a word of the
    # README, the paper record or the CI workflow, or is listed above with
    # a reason.
    import importlib

    _, _, _, attributes = _callers()
    words = _doc_words()
    uncalled = set()
    for key, (name, owners) in _exports().items():
        exported = getattr(importlib.import_module(min(owners)), name)
        if not inspect.isclass(exported):
            continue
        for member, value in vars(exported).items():
            if member.startswith("_") or not (
                inspect.isfunction(value)
                or isinstance(value, (property, classmethod, staticmethod))
            ):
                continue
            if member not in attributes and member not in words:
                uncalled.add(f"{key}.{member}")
    flagged = sorted(uncalled - set(_TEST_ONLY_METHODS))
    assert not flagged, f"public but called only from tests: {flagged}"
    stale = sorted(set(_TEST_ONLY_METHODS) - uncalled)
    assert not stale, f"exemptions no longer needed: {stale}"
