"""quizlab: an exact-arithmetic laboratory for quiz-game protocols.

The package implements robust arithmetic circuits, five concrete
parameterized polynomial families, identification sequences, exact and
approximative quizmaster/player protocols, and the rank witnesses behind
the associated representation-size lower bounds.  All core computation is
exact (rationals and truncated Laurent series, with rank certificates over
prime fields); only the neural training harness uses floating point.
"""

__version__ = "0.1.0"
