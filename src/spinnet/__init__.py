"""spinnet: exact ZXH-diagram construction and evaluation for SU(2)
recoupling networks (Wigner 3jm / 4jm / 6j symbols)."""

from .exact import ExactScalar, HalfInteger, RadicalNumber, sqrt_rational
from .graph import Diagram, compose_par, compose_seq, deserialize, serialize
from .tensor import Tensor, eval_diagram, plan_contraction, plug_basis

__all__ = [
    "ExactScalar",
    "HalfInteger",
    "RadicalNumber",
    "sqrt_rational",
    "Diagram",
    "compose_seq",
    "compose_par",
    "serialize",
    "deserialize",
    "Tensor",
    "eval_diagram",
    "plan_contraction",
    "plug_basis",
]

__version__ = "0.1.0"
