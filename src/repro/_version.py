"""Single source of truth for the library version.

Kept in a leaf module (rather than ``repro/__init__``) so that internal
modules — :mod:`repro.io` stamps artifacts with the version, the serving
registry verifies it — can import the version without triggering the
package's full import graph or a circular import.
"""

from __future__ import annotations

__all__ = ["__version__", "version_info", "NUMERICS_VERSION"]

__version__ = "1.1.0"

#: Version of the numerics: bumped by a change that moves any computed bit
#: (a fit, a transform, a score). Every run-ledger digest carries it in
#: place of ``__version__``, so a release that moves no bits re-keys no
#: store.
NUMERICS_VERSION = "1.1.0"

#: ``(major, minor, patch)`` integer triple parsed from ``__version__``.
version_info = tuple(int(part) for part in __version__.split("."))
