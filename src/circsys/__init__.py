"""Circular construction sequences at desk scale.

Staged coefficient arithmetic, structured words with the d-bar metric,
the circular interleaving operator and its parser, odometer/circular
construction sequences and the functor between them, orbit-window
locations, rotation displacement analysis, stationary codes, a
verification-driven word builder, and tree-prefix reductions.
"""

__version__ = "0.1.0"
