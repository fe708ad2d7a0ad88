"""Numerical workbench for encoded-qubit constructions.

The package studies one question from several angles: when does a subspace
or subsystem of a larger quantum system carry a qubit, in the operational
sense of a support projector P together with encoded Pauli operators X, Y,
Z satisfying the qubit relations on that support?  Concrete realizations
live in dedicated modules (dual-rail photonic modes, the three-bit flip
code with its recovery, three spins under collective noise); the frame and
operator-algebra machinery that certifies them lives in `frames`.
"""

from .frames import (
    AlgebraStructure,
    EncodedQubitFrame,
    OperatorAlgebra,
    algebra_structure,
    commutant_basis,
    expectation,
    frame_commutes_with,
    isotypic_decomposition,
    verify_frame,
)
from .linalg import KrausChannel, child_seed

__all__ = [
    "AlgebraStructure",
    "EncodedQubitFrame",
    "KrausChannel",
    "OperatorAlgebra",
    "algebra_structure",
    "child_seed",
    "commutant_basis",
    "expectation",
    "frame_commutes_with",
    "isotypic_decomposition",
    "verify_frame",
]

__version__ = "0.1.0"
