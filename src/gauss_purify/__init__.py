"""Optimal attenuation and amplification of phase-invariant Gaussian states.

The package computes minimax simulation risks for rescaling thermal
states with beamsplitters and parametric amplifiers, the matching
classical Gaussian problem, and the purification/dilution rates the
comparison induces for displaced qubit ensembles.
"""

from . import channels, fock, risk
from .fock import *  # noqa: F403
from .channels import *  # noqa: F403
from .risk import *  # noqa: F403

__version__ = "0.1.0"

__all__ = fock.__all__ + channels.__all__ + risk.__all__
