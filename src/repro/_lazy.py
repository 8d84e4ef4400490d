"""PEP 562 lazy re-exports: a package ``__init__`` lists its public
names by leaf module and imports a leaf only when one of them is used.

    __getattr__, __dir__, __all__ = attach(__name__, {
        "mnemo": ["Mnemo", "ExternalTieringMnemo"],
        "slo": ["SizingChoice", "choice_at"],
    })

``import repro`` then costs the ``__init__`` files alone; see
"Import layering" in ``DESIGN.md``.
"""

from __future__ import annotations

import sys
from importlib import import_module


def attach(package: str, exports: dict[str, list[str]]):
    """``(__getattr__, __dir__, __all__)`` for *package*.

    *exports* maps a module path relative to *package* to the names it
    provides.  A name resolves on first access and is cached in the
    package's globals, so ``__getattr__`` runs once per name.  Any other
    name is tried as a submodule (``repro.runner.grid`` works after
    ``import repro.runner``) and is an :class:`AttributeError` if there
    is none.
    """
    leaf_of = {name: leaf for leaf, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        target = f"{package}.{leaf_of.get(name, name)}"
        try:
            value = import_module(target)
        except ModuleNotFoundError as exc:
            if exc.name != target:
                raise  # the submodule exists; something it imports does not
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if name in leaf_of:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | leaf_of.keys())

    return __getattr__, __dir__, list(leaf_of)
