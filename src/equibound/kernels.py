"""The two coefficient kernels: expand to superblocks, project gradients back.

Large dense matmuls are deliberately left to numpy/BLAS and do not live
here.  A one-dimensional irrep has a single (1, 1) basis matrix, so
expanding is one elementwise product by that scalar: one pass over the
entries, where the general `einsum` scales them slowly.  The product is
the single term the sum computes, so the values are the same bit for
bit, except that a product of -0.0 keeps its sign where the sum, which
starts from +0.0, returns +0.0.  For the basis [[1]], which every
one-dimensional catalog irrep has, projecting is a reshape (a view).
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
    sum_k basis[k, p, q] * coeffs[j, i, k].
    """
    m_out, m_in, _ = coeffs.shape
    if basis.shape == (1, 1, 1):
        return coeffs.reshape(m_out, m_in) * basis[0, 0, 0]
    d = basis.shape[1]
    blocks = np.einsum("kpq,jik->pjqi", basis, coeffs)
    return np.ascontiguousarray(blocks.reshape(d * m_out, d * m_in))


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
