"""Execute the doctests embedded in public docstrings, and check doc links."""

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
