"""Simulation lab for walks on randomly oriented lattices, random walks
in random scenery, and the stable processes they converge to.

Submodules:

    rng          counter-based deterministic randomness
    laws         stable laws and lattice step/scenery laws
    enumeration  occupation-profile dynamic programming
    oriented     the horizontally oriented lattice walk
    rwrs         scenery-sum walks and their functionals
    limit        discretized local-time integrals of stable paths
    harness      validated Monte Carlo experiments and fits
    cli          command-line front end
"""

from . import cli, enumeration, harness, laws, limit, oriented, rng, rwrs

__version__ = "0.3.0"
