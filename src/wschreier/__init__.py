"""Weakly Schreier split extensions of finite monoids.

Tooling for split extensions N -> G <-> H of finite monoids presented as
Cayley tables: verification of the weakly Schreier condition, the
correspondence with admissible-relation/compatible-action pairs, lambda
semidirect products of inverse monoids, Artin-like actions and their joins,
and Artin glueings of finite frames.

The package re-exports each library module's ``__all__``.  It imports them
lazily (PEP 562): the first package-level name that is not yet bound imports
the seven library modules and binds their names, as ``from .m import *``
would in this order.  ``import wschreier.io`` alone loads only ``io`` and what
it imports.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

_LIBRARY = ("monoid", "catalog", "extension", "waction", "lambda_product", "frames", "io")


class _Package(_ModuleType):
    """The package's class until the library is loaded."""

    def __setattr__(self, name, value):
        # The import system binds a submodule on its package once it has run.
        # Where the submodule exports its own name (lambda_product), the
        # package's name is that export, as the star import made it.
        if isinstance(value, _ModuleType) and name in getattr(value, "__all__", ()):
            value = getattr(value, name)
        super().__setattr__(name, value)

    def __getattr__(self, name):
        namespace = _load(self)
        if name in namespace:
            return namespace[name]
        raise AttributeError("module %r has no attribute %r" % (__name__, name))

    def __dir__(self):
        return sorted(_load(self))


def _load(package):
    """The package namespace, once each library module is imported and its
    __all__ bound here."""
    namespace = vars(package)
    for module in _LIBRARY:
        m = _import_module("." + module, __name__)
        namespace.update((attr, getattr(m, attr)) for attr in m.__all__)
    # The package is now what the star imports made it, and no import can
    # bind over a library name.  Python specialises attribute reads only on
    # a plain module without __getattr__: 13 ns against 48 ns a read (3.11).
    package.__class__ = _ModuleType
    return namespace


_sys.modules[__name__].__class__ = _Package
