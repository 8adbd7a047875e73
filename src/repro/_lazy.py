"""Lazy package exports (PEP 562): a submodule loads on first use.

A package root declares its public names once, as a table of
``{submodule: names}``, and binds what :func:`exports` returns::

    from .. import _lazy

    __getattr__, __dir__, __all__ = _lazy.exports(__name__, {
        "cache": ("ResultCache", "cache_key"),
        "runner": ("CampaignRunner",),
    })

The first access to a name imports its submodule and stores the value in
the package's namespace, so later lookups are plain dictionary reads that
never reach ``__getattr__``.  A name listed under its own submodule's name
(``"presets": ("presets",)``) exports that submodule.  A name the table
lacks that is a submodule of the package (``repro.campaign.runner``) is
imported and returned; any other name raises the usual ``AttributeError``.
"""

import importlib


def exports(package: str, table: dict[str, tuple[str, ...]]) -> tuple:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from its export table."""
    where = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        sub = where.get(name)
        if sub is not None:
            module = importlib.import_module(f"{package}.{sub}")
            value = module if name == sub else getattr(module, name)
            setattr(importlib.import_module(package), name, value)
            return value
        # A dunder probe never imports: ``repro.__main__`` runs the CLI.
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(vars(importlib.import_module(package))) | set(where))

    return __getattr__, __dir__, list(where)
