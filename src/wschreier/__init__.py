"""Weakly Schreier split extensions of finite monoids.

Tooling for split extensions N -> G <-> H of finite monoids presented as
Cayley tables: verification of the weakly Schreier condition, the
correspondence with admissible-relation/compatible-action pairs, lambda
semidirect products of inverse monoids, Artin-like actions and their joins,
and Artin glueings of finite frames.

The package re-exports each library module's ``__all__``.
"""

from .monoid import *
from .catalog import *
from .extension import *
from .waction import *
from .lambda_product import *
from .frames import *
from .io import *

__version__ = "0.1.0"
