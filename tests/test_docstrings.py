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
    # Every *.md file named in the library, the tests or the README
    # exists, at the repository root or relative to the naming file.
    sources = [ROOT / "README.md", *(ROOT / "src").rglob("*.py"),
               *(ROOT / "tests").rglob("*.py")]
    missing = []
    for source in sources:
        text = source.read_text(encoding="utf-8")
        if ".md" not in text:
            continue
        for name in set(re.findall(r"[\w./-]*\w\.md\b", text)):
            if not ((ROOT / name).exists() or (source.parent / name).exists()):
                missing.append(f"{source.relative_to(ROOT)}: {name}")
    assert not missing, missing
