"""Exact-arithmetic toolkit for balance constants of convex sets in Coxeter groups.

Submodules:

* ``rootsys``   crystallographic root systems, root posets, order ideals
* ``weyl``      finite Weyl groups: elements as signed root permutations
* ``coxgen``    Coxeter systems of diagrams (labels 2, 3, 4, 6, inf) on integer
                roots, the word routines of both group objects, and word
                combinatorics
* ``posets``    labelled posets, heaps, ideal statistics
* ``convex``    convex subsets, inversion fractions, balance constants
* ``semiorder`` generalized semiorders and the single-exit witness scans
* ``alcove``    fundamental alcoves, order polytopes, exponential bounds
* ``verify``    verification campaigns with exact reports
* ``cli``       the ``coxbalance`` command-line entry point

A finite Weyl type is the group object ``WeylContext`` and a diagram the group
object ``CoxSystem``; the convex-set, heap and word routines take either one.
Each keeps only its element primitives and inherits the word routines
(``from_word``, ``reduced_word``, ``check_reduced`` and the rest) from
``coxgen.GroupWords``.  An element of either is a bare tuple that is its own
key: the signed action on the positive roots for a Weyl type, the integer
root columns for a diagram.
"""

from .rootsys import RootSystem, build_root_system
from .convex import ConvexSet
from .coxgen import CoxSystem
from .weyl import WeylContext

__version__ = "0.1.0"

__all__ = [
    "RootSystem",
    "build_root_system",
    "ConvexSet",
    "CoxSystem",
    "WeylContext",
    "__version__",
]
