"""Lazy package exports (PEP 562).

A package that lists its exports as ``{name: submodule}`` loads each
submodule on the first access to one of its names, so ``import repro``
and ``python -m repro serve`` pay only for the modules they touch::

    _EXPORTS = {"PFR": ".core", "serving": ".serving"}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

A name whose submodule is ``"." + name`` is that submodule itself;
every other name is the submodule's attribute of the same name. An
export must not share its name with a submodule that defines something
else (``repro.graphs.laplacian`` the module vs. the function): importing
the submodule would bind the module to that name first.
"""

from __future__ import annotations

import importlib

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, exports: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's ``namespace``.

    A resolved name is cached in ``namespace``, so each one costs a
    module-level lookup after its first access.
    """
    package = namespace["__name__"]

    def __getattr__(name):
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(submodule, package)
        value = module if submodule == "." + name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
