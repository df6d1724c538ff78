"""The coefficient kernels: block structure, adjointness and reference sums.

A superblock is indexed component-major with the copy fastest, so the
(j, i) block of an irrep of dimension d sits at rows j::m_out and
columns i::m_in.
"""

import numpy as np
import pytest

from equibound import kernels


def _random_case(rng, m_out, m_in, c, d):
    coeffs = rng.standard_normal((m_out, m_in, c))
    basis = rng.standard_normal((c, d, d))
    return coeffs, basis


@pytest.mark.parametrize("m_out,m_in,c,d", [(1, 1, 1, 1), (3, 2, 2, 2), (4, 5, 4, 4)])
def test_expand_coefficients_block_structure(m_out, m_in, c, d):
    rng = np.random.default_rng(1)
    coeffs, basis = _random_case(rng, m_out, m_in, c, d)
    out = kernels.expand_coefficients(coeffs, basis)
    assert out.shape == (m_out * d, m_in * d)
    for j in range(m_out):
        for i in range(m_in):
            block = sum(coeffs[j, i, k] * basis[k] for k in range(c))
            np.testing.assert_allclose(out[j::m_out, i::m_in], block, atol=1e-13)


@pytest.mark.parametrize("m_out,m_in,c,d", [(1, 1, 1, 1), (3, 2, 2, 2), (4, 5, 4, 4), (6, 1, 1, 2)])
def test_expand_coefficients_is_sum_of_krons(m_out, m_in, c, d):
    """The superblock is sum_t kron(basis_t, coefficients[:, :, t])."""
    rng = np.random.default_rng(5)
    coeffs, basis = _random_case(rng, m_out, m_in, c, d)
    expected = sum(np.kron(basis[t], coeffs[:, :, t]) for t in range(c))
    np.testing.assert_allclose(kernels.expand_coefficients(coeffs, basis), expected, atol=1e-13)


@pytest.mark.parametrize("m_out,m_in,c,d", [(2, 3, 1, 2), (3, 3, 2, 2), (2, 2, 4, 4)])
def test_expand_project_adjoint(m_out, m_in, c, d):
    """<expand(c), G> == <c, project(G)> for random coefficients and G."""
    rng = np.random.default_rng(2)
    coeffs, basis = _random_case(rng, m_out, m_in, c, d)
    grad = rng.standard_normal((m_out * d, m_in * d))
    lhs = float(np.sum(kernels.expand_coefficients(coeffs, basis) * grad))
    rhs = float(np.sum(coeffs * kernels.project_coefficients(grad, basis)))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_project_recovers_coefficients_for_orthonormal_basis():
    """With an orthonormal basis, project(expand(c)) == d * c... scaled.

    The intertwiner bases used by the layers satisfy <B_k, B_l> = d
    delta_kl, so projection returns d * coefficients; here we build an
    explicitly orthonormal basis so the factor is 1.
    """
    rng = np.random.default_rng(3)
    d, c = 3, 2
    raw = rng.standard_normal((c, d * d))
    q, _ = np.linalg.qr(raw.T)
    basis = np.ascontiguousarray(q.T[:c].reshape(c, d, d))
    coeffs = rng.standard_normal((4, 5, c))
    out = kernels.project_coefficients(
        kernels.expand_coefficients(coeffs, basis), basis
    )
    np.testing.assert_allclose(out, coeffs, atol=1e-12)


@pytest.mark.parametrize("m_out,m_in,c,d", [(1, 1, 1, 1), (3, 2, 2, 2), (2, 4, 4, 4)])
def test_kernels_match_per_block_sums(m_out, m_in, c, d):
    """Both kernels against explicit sums over each (j, i) block."""
    rng = np.random.default_rng(4)
    coeffs, basis = _random_case(rng, m_out, m_in, c, d)
    grad = rng.standard_normal((m_out * d, m_in * d))
    expanded = np.zeros((m_out * d, m_in * d))
    projected = np.zeros((m_out, m_in, c))
    for j in range(m_out):
        for i in range(m_in):
            rows, cols = slice(j, None, m_out), slice(i, None, m_in)
            for k in range(c):
                expanded[rows, cols] += coeffs[j, i, k] * basis[k]
                projected[j, i, k] = np.sum(grad[rows, cols] * basis[k])
    np.testing.assert_allclose(
        kernels.expand_coefficients(coeffs, basis), expanded, atol=1e-13
    )
    np.testing.assert_allclose(
        kernels.project_coefficients(grad, basis), projected, atol=1e-13
    )


@pytest.mark.parametrize("m_out,m_in", [(1, 1), (3, 5), (64, 33)])
@pytest.mark.parametrize("unit", [True, False])
def test_one_dimensional_kernels_equal_einsum(m_out, m_in, unit):
    """A (1, 1, 1) basis takes one elementwise product, the einsum's only term."""
    rng = np.random.default_rng(6)
    basis = np.ones((1, 1, 1)) if unit else rng.standard_normal((1, 1, 1))
    coeffs = rng.standard_normal((m_out, m_in, 1))
    grad = rng.standard_normal((m_out, m_in))
    expanded = np.einsum("kpq,jik->pjqi", basis, coeffs).reshape(m_out, m_in)
    projected = np.einsum("pjqi,kpq->jik", grad.reshape(1, m_out, 1, m_in), basis)
    assert np.array_equal(kernels.expand_coefficients(coeffs, basis), expanded)
    assert np.array_equal(kernels.project_coefficients(grad, basis), projected)


def test_unit_basis_projection_returns_the_gradient_itself():
    """Every one-dimensional catalog irrep has the basis [[1]], for which the
    projection is a reshape of the gradient, with no pass over it."""
    from equibound.groups import build_group
    from equibound.irreps import intertwiner_basis, irreps_of

    for kind, N in (("cyclic", 1), ("cyclic", 4), ("dihedral", 4), ("quaternion", 8)):
        G = build_group(kind, N)
        for psi in irreps_of(G):
            if psi.dim == 1:
                assert np.array_equal(intertwiner_basis(G, psi), np.ones((1, 1, 1)))
    grad = np.random.default_rng(7).standard_normal((6, 5))
    out = kernels.project_coefficients(grad, np.ones((1, 1, 1)))
    assert out.shape == (6, 5, 1)
    assert np.shares_memory(out, grad)
    assert np.array_equal(out[:, :, 0], grad)
