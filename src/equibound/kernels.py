"""The two coefficient kernels: expand to superblocks, project gradients back.

Large dense matmuls are deliberately left to numpy/BLAS and do not live
here.  Expanding is one (blocks x c)(c x d*d) matmul and one transposed
copy into the superblock layout.  Every catalog basis has entries in
{0, 1, -1} with one nonzero term per superblock entry, so each entry is
one exact product plus zeros, and the values equal those of the
`einsum` over the same sum bit for bit, signs of zeros included (a test
checks every catalog irrep).  For the basis [[1]], which every
one-dimensional catalog irrep has, expanding and projecting are
reshapes (views): such a superblock is its coefficient array itself,
which keeps the sign of a -0.0 coefficient where the sum, which starts
from +0.0, returns +0.0.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "expand_coefficients",
    "project_coefficients",
]

# Kept for benchmark environment records; there is no compiled path.
NUMBA_ENABLED = False


def expand_coefficients(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Expand per-block coefficients into the dense per-irrep superblock.

    coeffs has shape (m_out, m_in, c) and basis has shape (c, d, d); the
    result is the (d*m_out, d*m_in) matrix sum_k kron(basis[k],
    coeffs[:, :, k]), whose entry [p*m_out + j, q*m_in + i] is
    sum_k basis[k, p, q] * coeffs[j, i, k].  For the basis [[1]] the
    result is a view of `coeffs`.
    """
    m_out, m_in, c = coeffs.shape
    if basis.shape == (1, 1, 1) and basis[0, 0, 0] == 1.0:
        return coeffs.reshape(m_out, m_in)
    d = basis.shape[1]
    blocks = (coeffs.reshape(-1, c) @ basis.reshape(c, d * d)).reshape(m_out, m_in, d, d)
    return blocks.transpose(2, 0, 3, 1).reshape(d * m_out, d * m_in)


def project_coefficients(grad: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Project a dense superblock gradient back onto the coefficient basis.

    grad has shape (d*m_out, d*m_in); the result has shape (m_out, m_in, c)
    with entry [j, i, k] = sum_pq grad[p*m_out + j, q*m_in + i] basis[k, p, q],
    the adjoint of `expand_coefficients`.  For the basis [[1]] the
    result is a view of `grad`.
    """
    c, d, _ = basis.shape
    m_out = grad.shape[0] // d
    m_in = grad.shape[1] // d
    if basis.shape == (1, 1, 1) and basis[0, 0, 0] == 1.0:
        return grad.reshape(m_out, m_in, 1)
    # The basis is the left operand, so the product's long side is the
    # block count: with the blocks on the left, one-dimensional irreps
    # took 2-3x longer.
    blocks = grad.reshape(d, m_out, d, m_in).transpose(0, 2, 1, 3).reshape(d * d, m_out * m_in)
    return (basis.reshape(c, d * d) @ blocks).T.reshape(m_out, m_in, c)
