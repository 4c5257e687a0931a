"""Execute the doctests embedded in public docstrings, check doc links, and
keep uncalled names out of the ml/metrics exports."""

import ast
import doctest
import re
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


# Public names kept with no caller outside tests/, each for a stated reason.
_TEST_ONLY_EXPORTS = {
    "roc_curve": "reference curve for roc_auc_score's trapezoid-area test",
}


def _referenced_names():
    # Identifiers loaded anywhere in the library, examples and bench scripts
    # (definitions, __all__ strings and re-exporting imports do not count),
    # plus every word of the README, the paper record and the CI workflow.
    names = set()
    for directory in ("src", "examples", "perfbench", "benchmarks"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    for doc in ("README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"):
        names.update(re.findall(r"\w+", (ROOT / doc).read_text(encoding="utf-8")))
    return names


def test_ml_and_metrics_exports_have_callers():
    # Dead surface stays out: every name repro.ml, repro.metrics or
    # repro.experiments exports is used somewhere besides its tests, or is
    # listed above with a reason.
    import repro.experiments
    import repro.metrics
    import repro.ml

    referenced = _referenced_names()
    exported = (set(repro.ml.__all__) | set(repro.metrics.__all__)
                | set(repro.experiments.__all__))
    uncalled = sorted(exported - referenced - set(_TEST_ONLY_EXPORTS))
    assert not uncalled, f"exported but called only from tests: {uncalled}"
    stale = sorted(set(_TEST_ONLY_EXPORTS) - (exported - referenced))
    assert not stale, f"exemptions no longer needed: {stale}"
