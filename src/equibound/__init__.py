"""Equivariant MLPs over finite groups with PAC-Bayesian bounds.

The package builds group-equivariant linear layers from real
irreducible representations, trains small networks on synthetic
symmetric datasets, and computes norm-based generalization bounds
whose terms are exposed for inspection and Monte-Carlo verification.
"""

__version__ = "0.1.0"
