"""Characterization machinery on groups R x Z(2) x G (G finite Abelian,
odd order): atomic signed measures, the two-Gaussian distribution class,
the conditional-symmetry functional equation, the constructive
decomposition of equation instances, and the rigidity decision."""

__version__ = "0.1.0"

from . import ambient, finite_abelian, measures, structure, symmetry, theta
from .ambient import *
from .finite_abelian import *
from .measures import *
from .structure import *
from .symmetry import *
from .theta import *

# the package exports exactly what its modules export
__all__ = ["__version__"] + [
    name
    for module in (ambient, finite_abelian, measures, structure, symmetry, theta)
    for name in module.__all__
]
