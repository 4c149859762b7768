"""decaylab: desk-scale numerical verification of dispersive decay estimates.

The library solves free phase-space transport exactly along characteristics,
evolves Schrodinger/Airy/even-order equations with unit-modulus Fourier
multipliers, derives the operators that commute with each evolution, builds
dyadic annulus norms, and measures every decay rate and inequality these
structures satisfy. See the experiment catalog in ``decaylab.experiments``
for the runnable checks.
"""

__version__ = "0.1.0"
