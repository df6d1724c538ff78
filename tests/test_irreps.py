"""Irrep catalogs, intertwiners, Fourier transforms, and decomposition."""

import math

import numpy as np
import pytest

from equibound.groups import build_group
from equibound.irreps import (
    decompose_representation,
    direct_sum,
    fourier_transform,
    fourier_transform_full,
    frequency_action,
    group_circulant,
    intertwiner_basis,
    inverse_fourier,
    irrep_by_id,
    irreps_of,
    regular_matrices,
    regular_representation,
    rep_from_json,
    rep_to_json,
    rep_violation,
    restricted_frequency_rep,
    shared_irreps,
    stack_rep,
    trivial_stack,
)
from equibound.verify import rep_invariants_check

ALL_GROUPS = (
    [("cyclic", n) for n in range(1, 17)]
    + [("dihedral", n) for n in range(1, 9)]
    + [("quaternion", 8)]
)


# ------------------------------------------------------------ irrep catalogs


def test_cyclic_catalog_order():
    G = build_group("cyclic", 6)
    ids = [p.id for p in irreps_of(G)]
    assert ids == ["triv", "freq:1", "freq:2", "sign"]
    dims = [p.dim for p in irreps_of(G)]
    assert dims == [1, 2, 2, 1]
    types = [p.type_c for p in irreps_of(G)]
    assert types == [1, 2, 2, 1]


def test_cyclic_odd_has_no_sign():
    G = build_group("cyclic", 5)
    assert [p.id for p in irreps_of(G)] == ["triv", "freq:1", "freq:2"]


def test_dihedral_catalog_order():
    G4 = build_group("dihedral", 4)
    assert [p.id for p in irreps_of(G4)] == ["triv", "sign", "alt", "alt-sign", "freq:1"]
    G3 = build_group("dihedral", 3)
    assert [p.id for p in irreps_of(G3)] == ["triv", "sign", "freq:1"]
    assert irrep_by_id(G3, "freq:1").type_c == 1  # real type for dihedral


def test_quaternion_catalog():
    G = build_group("quaternion")
    ids = [(p.id, p.dim, p.type_c) for p in irreps_of(G)]
    assert ids == [
        ("triv", 1, 1),
        ("sign:i", 1, 1),
        ("sign:j", 1, 1),
        ("sign:k", 1, 1),
        ("quat", 4, 4),
    ]


def test_quaternion_sign_characters():
    """sign:i is +1 exactly on {1, -1, i, -i}, and so on."""
    G = build_group("quaternion")
    plus = {
        "sign:i": {"1", "-1", "i", "-i"},
        "sign:j": {"1", "-1", "j", "-j"},
        "sign:k": {"1", "-1", "k", "-k"},
    }
    for pid, positive in plus.items():
        psi = irrep_by_id(G, pid)
        # The quaternion elements in their fixed order (see `groups`).
        for g, name in enumerate(("1", "-1", "i", "-i", "j", "-j", "k", "-k")):
            expected = 1.0 if name in positive else -1.0
            assert psi.characters[g] == expected


@pytest.mark.parametrize("kind,N", ALL_GROUPS)
def test_irreps_are_homomorphisms(kind, N):
    G = build_group(kind, N)
    for psi in irreps_of(G):
        mats = psi.matrices
        np.testing.assert_allclose(mats[0], np.eye(psi.dim), atol=1e-14)
        for a in range(G.order):
            for b in range(G.order):
                np.testing.assert_allclose(
                    mats[a] @ mats[b], mats[G.cayley[a, b]], atol=1e-12
                )
            # orthogonality of each representing matrix
            np.testing.assert_allclose(
                mats[a] @ mats[a].T, np.eye(psi.dim), atol=1e-12
            )


@pytest.mark.parametrize("kind,N", ALL_GROUPS)
def test_sum_dim_squared_over_type_is_order(kind, N):
    G = build_group(kind, N)
    total = sum(p.dim**2 // p.type_c for p in irreps_of(G))
    exact = sum(p.dim**2 % p.type_c for p in irreps_of(G))
    assert exact == 0  # d^2 is always divisible by c
    assert total == G.order


@pytest.mark.parametrize("kind,N", ALL_GROUPS)
def test_character_square_mean_equals_type(kind, N):
    G = build_group(kind, N)
    for psi in irreps_of(G):
        mean_sq = float(np.mean(psi.characters**2))
        assert abs(mean_sq - psi.type_c) < 1e-12


@pytest.mark.parametrize("kind,N", [("cyclic", 7), ("dihedral", 5), ("quaternion", 8)])
def test_character_orthogonality(kind, N):
    G = build_group(kind, N)
    ps = irreps_of(G)
    for a, pa in enumerate(ps):
        for b, pb in enumerate(ps):
            inner = float(np.mean(pa.characters * pb.characters))
            expected = pa.type_c if a == b else 0.0
            assert abs(inner - expected) < 1e-12


def test_irrep_by_id_unknown():
    G = build_group("cyclic", 4)
    with pytest.raises(KeyError):
        irrep_by_id(G, "freq:9")


# -------------------------------------------------------------- intertwiners


def test_intertwiner_basis_real_type():
    G = build_group("dihedral", 4)
    basis = intertwiner_basis(irrep_by_id(G, "freq:1"))
    assert basis.shape == (1, 2, 2)
    np.testing.assert_array_equal(basis[0], np.eye(2))


def test_intertwiner_basis_complex_type():
    G = build_group("cyclic", 8)
    basis = intertwiner_basis(irrep_by_id(G, "freq:1"))
    assert basis.shape == (2, 2, 2)
    np.testing.assert_array_equal(basis[0], np.eye(2))
    np.testing.assert_array_equal(basis[1], np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_intertwiner_basis_quaternion_type():
    G = build_group("quaternion")
    basis = intertwiner_basis(irrep_by_id(G, "quat"))
    assert basis.shape == (4, 4, 4)
    np.testing.assert_array_equal(basis[0], np.eye(4))
    # the three non-identity patterns anticommute pairwise and square to -I
    for k in (1, 2, 3):
        np.testing.assert_allclose(basis[k] @ basis[k], -np.eye(4), atol=1e-14)
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            if k != l:
                np.testing.assert_allclose(
                    basis[k] @ basis[l], -(basis[l] @ basis[k]), atol=1e-14
                )


@pytest.mark.parametrize(
    "kind,N,pid",
    [
        ("dihedral", 4, "freq:1"),
        ("cyclic", 8, "freq:1"),
        ("cyclic", 8, "freq:3"),
        ("quaternion", 8, "quat"),
    ],
)
def test_intertwiners_commute_with_irrep(kind, N, pid):
    G = build_group(kind, N)
    psi = irrep_by_id(G, pid)
    basis = intertwiner_basis(psi)
    for B in basis:
        for g in range(G.order):
            np.testing.assert_allclose(B @ psi.matrices[g], psi.matrices[g] @ B, atol=1e-12)


def test_intertwiner_basis_orthogonality():
    """<B_k, B_l>_F = d * delta_kl for every catalog irrep."""
    for kind, N in (("cyclic", 12), ("dihedral", 6), ("quaternion", 8)):
        G = build_group(kind, N)
        for psi in irreps_of(G):
            basis = intertwiner_basis(psi)
            gram = np.einsum("kpq,lpq->kl", basis, basis)
            np.testing.assert_allclose(gram, psi.dim * np.eye(psi.type_c), atol=1e-12)


def test_spectral_equals_scaled_frobenius_on_span():
    """On span{B_k}, the spectral norm is the Frobenius norm / sqrt(d)."""
    rng = np.random.default_rng(0)
    for kind, N, pid in (
        ("dihedral", 4, "freq:1"),
        ("cyclic", 8, "freq:1"),
        ("quaternion", 8, "quat"),
    ):
        G = build_group(kind, N)
        psi = irrep_by_id(G, pid)
        basis = intertwiner_basis(psi)
        for _ in range(20):
            W = np.tensordot(rng.standard_normal(psi.type_c), basis, axes=1)
            spec = np.linalg.norm(W, 2)
            fro = np.linalg.norm(W, "fro")
            assert abs(spec - fro / math.sqrt(psi.dim)) < 1e-12 * max(1.0, fro)


# -------------------------------------------------------- regular rep, Fourier


@pytest.mark.parametrize("kind,N", [("cyclic", 5), ("cyclic", 6), ("dihedral", 4), ("quaternion", 8)])
def test_regular_matrices_permutation_action(kind, N):
    G = build_group(kind, N)
    mats = regular_matrices(G)
    for g in range(G.order):
        assert np.array_equal(mats[g] @ mats[g].T, np.eye(G.order))
        for j in range(G.order):
            col = mats[g, :, j]
            assert col[G.cayley[g, j]] == 1.0
            assert col.sum() == 1.0


@pytest.mark.parametrize("kind,N", [("cyclic", 6), ("dihedral", 4), ("quaternion", 8)])
def test_regular_representation_consistency(kind, N):
    G = build_group(kind, N)
    rep = regular_representation(G)
    assert rep.dim == G.order
    # multiplicity of each irrep is dim/type
    for psi in irreps_of(G):
        assert dict(rep.blocks)[psi.id] == psi.dim // psi.type_c
    # Q orthogonal and rho matches the permutation matrices
    np.testing.assert_allclose(rep.Q @ rep.Q.T, np.eye(G.order), atol=1e-12)
    mats = regular_matrices(G)
    for g in range(G.order):
        np.testing.assert_allclose(rep.rho(g), mats[g], atol=1e-12)


@pytest.mark.parametrize("kind,N", [("cyclic", 5), ("cyclic", 8), ("dihedral", 3), ("quaternion", 8)])
def test_fourier_roundtrip_and_shift(kind, N):
    G = build_group(kind, N)
    rng = np.random.default_rng(7)
    mats = regular_matrices(G)
    for _ in range(10):
        x = rng.standard_normal(G.order)
        coeffs = fourier_transform(G, x)
        full = fourier_transform_full(G, x)
        for p in irreps_of(G):
            keep = p.dim // p.type_c
            assert np.array_equal(coeffs[p.id], np.einsum("g,gpq->pq", x, p.matrices[:, :, :keep]))
            assert np.array_equal(coeffs[p.id], full[p.id][:, :keep])
        np.testing.assert_allclose(inverse_fourier(G, coeffs), x, atol=1e-12)
        g = int(rng.integers(0, G.order))
        shifted_coeffs = fourier_transform(G, mats[g] @ x)
        for p in irreps_of(G):
            np.testing.assert_allclose(
                shifted_coeffs[p.id], p.matrices[g] @ coeffs[p.id], atol=1e-11
            )


def test_fourier_of_delta_at_identity():
    """The delta at the identity has full transform I for every irrep."""
    G = build_group("dihedral", 3)
    x = np.zeros(G.order)
    x[0] = 1.0
    full = fourier_transform_full(G, x)
    for p in irreps_of(G):
        np.testing.assert_allclose(full[p.id], np.eye(p.dim), atol=1e-14)


def test_group_circulant_c4_oracle():
    """C_4 circulant of (1,2,3,4): rows are cyclic right-shifts; norm 10."""
    G = build_group("cyclic", 4)
    w = np.array([1.0, 2.0, 3.0, 4.0])
    W = group_circulant(G, w)
    expected = np.array(
        [
            [1.0, 2.0, 3.0, 4.0],
            [4.0, 1.0, 2.0, 3.0],
            [3.0, 4.0, 1.0, 2.0],
            [2.0, 3.0, 4.0, 1.0],
        ]
    )
    np.testing.assert_array_equal(W, expected)
    assert abs(np.linalg.norm(W, 2) - 10.0) < 1e-12


@pytest.mark.parametrize("kind,N", [("cyclic", 8), ("dihedral", 3), ("quaternion", 8)])
def test_group_circulant_is_convolution(kind, N):
    """(W x)(a) = sum_b w(a^{-1} b) x(b), checked by brute force."""
    G = build_group(kind, N)
    rng = np.random.default_rng(11)
    w = rng.standard_normal(G.order)
    x = rng.standard_normal(G.order)
    W = group_circulant(G, w)
    brute = np.zeros(G.order)
    for a in range(G.order):
        for b in range(G.order):
            brute[a] += w[G.cayley[G.inverses[a], b]] * x[b]
    np.testing.assert_allclose(W @ x, brute, atol=1e-12)


@pytest.mark.parametrize("kind,N", [("cyclic", 8), ("dihedral", 6)])
def test_convolution_theorem(kind, N):
    """Full transform of W x equals x_hat(psi) w_hat(psi)^T per irrep."""
    G = build_group(kind, N)
    rng = np.random.default_rng(13)
    for _ in range(10):
        w = rng.standard_normal(G.order)
        x = rng.standard_normal(G.order)
        y = group_circulant(G, w) @ x
        fy = fourier_transform_full(G, y)
        fx = fourier_transform_full(G, x)
        fw = fourier_transform_full(G, w)
        for p in irreps_of(G):
            np.testing.assert_allclose(fy[p.id], fx[p.id] @ fw[p.id].T, atol=1e-10)


def test_group_circulant_commutes_with_translation():
    G = build_group("dihedral", 4)
    rng = np.random.default_rng(17)
    w = rng.standard_normal(G.order)
    W = group_circulant(G, w)
    mats = regular_matrices(G)
    for g in range(G.order):
        np.testing.assert_allclose(W @ mats[g], mats[g] @ W, atol=1e-12)


def test_group_circulant_shape_validation():
    G = build_group("cyclic", 4)
    with pytest.raises(ValueError):
        group_circulant(G, np.zeros(5))


# ------------------------------------------------------------- decomposition


def test_decompose_regular_representation():
    G = build_group("dihedral", 3)
    rep = decompose_representation(G, regular_matrices(G))
    assert dict(rep.blocks) == {"triv": 1, "sign": 1, "freq:1": 2}


def test_decompose_conjugated_rep_recovers_multiplicities():
    G = build_group("cyclic", 6)
    rng = np.random.default_rng(19)
    base = regular_matrices(G)
    R, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    rho = np.einsum("ij,gjk,lk->gil", R, base, R)
    rep = decompose_representation(G, rho)
    assert dict(rep.blocks) == {"triv": 1, "freq:1": 1, "freq:2": 1, "sign": 1}
    for g in range(G.order):
        np.testing.assert_allclose(rep.rho(g), rho[g], atol=1e-9)


def test_decompose_rejects_non_homomorphism():
    G = build_group("cyclic", 4)
    rho = np.stack([np.eye(2) for _ in range(4)])
    rho[1] = np.array([[0.0, 1.0], [1.0, 0.0]])  # not a C_4 homomorphism image
    with pytest.raises(ValueError):
        decompose_representation(G, rho)


def test_decompose_rejects_non_orthogonal():
    G = build_group("cyclic", 2)
    rho = np.stack([np.eye(2), np.diag([1.0, -2.0])])
    with pytest.raises(ValueError):
        decompose_representation(G, rho)


# -------------------------------------------------- restricted frequency reps


def test_restricted_frequency_c4_f1_identity_basis():
    G = build_group("cyclic", 4)
    rep = restricted_frequency_rep(G, 1, False)
    assert rep.blocks == (("freq:1", 1),)
    np.testing.assert_allclose(rep.Q, np.eye(2), atol=1e-12)


def test_restricted_frequency_c4_f3_conjugate_basis():
    """Frequency 3 is the reflection of frequency 1 on C_4."""
    G = build_group("cyclic", 4)
    rep = restricted_frequency_rep(G, 3, False)
    assert rep.blocks == (("freq:1", 1),)
    np.testing.assert_allclose(np.abs(rep.Q), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(rep.Q, np.diag([1.0, -1.0]), atol=1e-12)


def test_restricted_frequency_aliasing():
    G = build_group("cyclic", 4)
    assert dict(restricted_frequency_rep(G, 0, False).blocks) == {"triv": 2}
    assert dict(restricted_frequency_rep(G, 2, False).blocks) == {"sign": 2}
    assert dict(restricted_frequency_rep(G, 4, False).blocks) == {"triv": 2}
    assert dict(restricted_frequency_rep(G, 5, False).blocks) == {"freq:1": 1}


def test_restricted_frequency_matches_rotation_action():
    for kind, n, f, reflected in (
        ("cyclic", 8, 3, False),
        ("dihedral", 4, 1, True),
        ("dihedral", 3, 2, True),
    ):
        G = build_group(kind, n)
        rep = restricted_frequency_rep(G, f, reflected)
        dim = 4 if reflected else 2
        assert rep.dim == dim
        for k in range(G.N):
            t = 2 * np.pi * f * k / G.N
            R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            if reflected:
                expected = np.zeros((4, 4))
                expected[:2, :2] = R
                expected[2:, 2:] = R
            else:
                expected = R
            np.testing.assert_allclose(rep.rho(k), expected, atol=1e-10)
        if kind == "dihedral":
            # the first reflection swaps the two circles and conjugates angles
            C = np.diag([1.0, -1.0])
            expected = np.zeros((4, 4))
            expected[:2, 2:] = C
            expected[2:, :2] = C
            np.testing.assert_allclose(rep.rho(G.N), expected, atol=1e-10)


def test_restricted_frequency_rejects_quaternion():
    G = build_group("quaternion")
    with pytest.raises(ValueError):
        restricted_frequency_rep(G, 1, False)


# ------------------------------------------------------ direct sums and stacks


def test_direct_sum_blocks_and_action():
    G = build_group("cyclic", 6)
    a = restricted_frequency_rep(G, 1, False)
    b = restricted_frequency_rep(G, 2, False)
    c = restricted_frequency_rep(G, 1, False)
    rep = direct_sum([a, b, c])
    assert rep.dim == 6
    assert dict(rep.blocks) == {"freq:1": 2, "freq:2": 1}
    for g in range(G.order):
        expected = np.zeros((6, 6))
        expected[:2, :2] = a.rho(g)
        expected[2:4, 2:4] = b.rho(g)
        expected[4:, 4:] = c.rho(g)
        np.testing.assert_allclose(rep.rho(g), expected, atol=1e-12)


def test_stack_rep_matches_kron():
    """A regular stack acts as kron(permutation matrix, I_channels)."""
    for kind, N in (("cyclic", 8), ("dihedral", 3), ("dihedral", 4), ("quaternion", 8)):
        G = build_group(kind, N)
        base = regular_representation(G)
        rep = stack_rep(base, 3)
        assert rep.dim == 3 * G.order
        for pid, mult in rep.blocks:
            assert mult == 3 * dict(base.blocks)[pid]
        mats = regular_matrices(G)
        for g in range(G.order):
            np.testing.assert_allclose(rep.rho(g), np.kron(mats[g], np.eye(3)), atol=1e-12)


def test_stack_of_stack_multiplies_channels():
    for kind, N in (("cyclic", 3), ("dihedral", 4)):
        G = build_group(kind, N)
        base = regular_representation(G)
        rep = stack_rep(stack_rep(base, 2), 3)
        assert rep.base_Q is base.base_Q
        assert rep.channels == 6
        assert rep.blocks == stack_rep(base, 6).blocks
        np.testing.assert_array_equal(rep.Q, stack_rep(base, 6).Q)


@pytest.mark.parametrize("kind,N", ALL_GROUPS)
def test_shared_irreps_matches_catalog_loop(kind, N):
    """Exactly the irreps with positive multiplicity in both reps, in catalog
    order, at their layout offsets."""
    G = build_group(kind, N)
    reg = regular_representation(G)
    reps = [reg, stack_rep(reg, 2), trivial_stack(G, 3)]
    if kind != "quaternion":
        freqs = [restricted_frequency_rep(G, f, kind == "dihedral") for f in range(4)]
        reps += freqs[1:3] + [direct_sum(freqs)]
    for in_rep in reps:
        starts_in = {psi.id: (off, m) for psi, off, m in in_rep.layout}
        for out_rep in reps:
            starts_out = {psi.id: (off, m) for psi, off, m in out_rep.layout}
            expected = [
                (psi, *starts_in[psi.id], *starts_out[psi.id])
                for psi in irreps_of(G)
                if psi.id in starts_in and psi.id in starts_out
            ]
            got = shared_irreps(in_rep, out_rep)
            assert [(p.id, *rest) for p, *rest in got] == [(p.id, *rest) for p, *rest in expected]
            assert all(p is q for (p, *_), (q, *_) in zip(got, expected))
            assert all(m_in > 0 and m_out > 0 for _, _, m_in, _, m_out in got)


# (kind, N, build): build(G) gives a stacked rep, the explicit action of
# its base rep, and its channel count.
STACK_CASES = pytest.mark.parametrize(
    "kind, N, build",
    [
        ("cyclic", 1, lambda G: (stack_rep(regular_representation(G), 4), regular_matrices(G), 4)),
        ("cyclic", 5, lambda G: (stack_rep(regular_representation(G), 4), regular_matrices(G), 4)),
        ("dihedral", 3, lambda G: (stack_rep(regular_representation(G), 3), regular_matrices(G), 3)),
        ("quaternion", 8, lambda G: (stack_rep(regular_representation(G), 2), regular_matrices(G), 2)),
        ("cyclic", 4, lambda G: (trivial_stack(G, 5), np.ones((G.order, 1, 1)), 5)),
        (
            "dihedral",
            4,
            lambda G: (
                stack_rep(restricted_frequency_rep(G, 1, True), 3),
                frequency_action(G, 1, True),
                3,
            ),
        ),
        (
            "cyclic",
            3,
            lambda G: (stack_rep(stack_rep(regular_representation(G), 2), 3), regular_matrices(G), 6),
        ),
    ],
    ids=[
        "c1-regular", "c5-regular", "d3-regular", "q8-regular", "trivial",
        "d4-frequency", "c3-stack-of-stack",
    ],
)


@STACK_CASES
def test_stack_block_transform_agrees_with_dense(kind, N, build):
    """The factored basis change against the dense Q, and the action against
    kron(explicit base action, I_channels)."""
    G = build_group(kind, N)
    rep, action, channels = build(G)
    assert rep.is_identity == np.array_equal(rep.Q, np.eye(rep.dim))
    rng = np.random.default_rng(23)
    X = rng.standard_normal((7, rep.dim))
    np.testing.assert_allclose(rep.to_block(X), X @ rep.Q, atol=1e-12)
    V = rng.standard_normal((7, rep.dim))
    np.testing.assert_allclose(rep.from_block(V), V @ rep.Q.T, atol=1e-12)
    np.testing.assert_allclose(rep.from_block(rep.to_block(X)), X, atol=1e-12)
    for g in range(G.order):
        np.testing.assert_allclose(rep.rho(g), np.kron(action[g], np.eye(channels)), atol=1e-12)


@STACK_CASES
def test_rep_violation_is_the_three_maxima(kind, N, build):
    """rep_violation is max|Q^T Q - I|, max|Q Q^T - I| and, given rho, the
    block-diagonal error; rep_invariants_check reports exactly that value."""
    G = build_group(kind, N)
    rep, action, channels = build(G)
    rho = np.stack([np.kron(a, np.eye(channels)) for a in action])
    Q, eye = rep.Q, np.eye(rep.dim)
    orth = max(np.max(np.abs(Q.T @ Q - eye)), np.max(np.abs(Q @ Q.T - eye)))
    blocks = max(
        np.max(np.abs(Q.T @ rho[g] @ Q - rep.block_diagonal(g))) for g in range(G.order)
    )
    assert rep_violation(rep) == orth
    assert rep_violation(rep, rho) == max(orth, blocks)
    assert rep_violation(rep, rho) < 1e-12
    assert rep_invariants_check(rep, rho).max_violation == rep_violation(rep, rho)


@pytest.mark.parametrize(
    "kind, N, channels",
    [("cyclic", 8, 3), ("dihedral", 4, 3), ("quaternion", 8, 2), ("dihedral", 3, 1)],
)
def test_each_irrep_is_one_contiguous_block_range(kind, N, channels):
    """Each irrep's range is contiguous, carries kron(psi(g), I_mult) under the
    explicit action, and to_block restricted to it is X @ Q[:, range]."""
    G = build_group(kind, N)
    rep = stack_rep(regular_representation(G), channels)
    mats = regular_matrices(G)
    rng = np.random.default_rng(31)
    X = rng.standard_normal((5, rep.dim))
    U = rep.to_block(X)
    end = 0
    for psi, offset, mult in rep.layout:
        assert offset == end
        end = offset + mult * psi.dim
        cols = slice(offset, end)
        Qr = rep.Q[:, cols]
        np.testing.assert_allclose(U[:, cols], X @ Qr, atol=1e-12)
        for g in range(G.order):
            acted = np.kron(mats[g], np.eye(channels)) @ Qr
            np.testing.assert_allclose(
                Qr.T @ acted, np.kron(psi.matrices[g], np.eye(mult)), atol=1e-12
            )
            # the range is invariant: the action leaves no component outside it
            np.testing.assert_allclose(Qr @ (Qr.T @ acted), acted, atol=1e-12)
    assert end == rep.dim


def test_trivial_stack_identity_fast_path():
    G = build_group("cyclic", 4)
    rep = trivial_stack(G, 3)
    assert rep.blocks == (("triv", 3),)
    assert rep.is_identity
    X = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(rep.to_block(X), X)
    np.testing.assert_array_equal(rep.from_block(X), X)


def test_block_coordinates_diagonalize_action():
    """to_block carries rho(g) to the block-diagonal catalog matrices."""
    G = build_group("dihedral", 4)
    rep = stack_rep(regular_representation(G), 2)
    rng = np.random.default_rng(29)
    X = rng.standard_normal((5, rep.dim))
    for g in (1, 5, 7):
        lhs = rep.to_block(X @ rep.rho(g).T)
        rhs = rep.to_block(X) @ rep.block_diagonal(g).T
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


# -------------------------------------------------------------- serialization


def test_rep_json_roundtrip_bit_exact():
    G = build_group("dihedral", 3)
    rep = restricted_frequency_rep(G, 1, True)
    data = rep_to_json(rep)
    rep2 = rep_from_json(G, data)
    assert rep2.blocks == rep.blocks
    assert np.array_equal(rep2.Q, rep.Q)  # exact float equality through JSON


def test_rep_json_identity_shortcut():
    G = build_group("cyclic", 4)
    rep = trivial_stack(G, 5)
    data = rep_to_json(rep)
    assert data["Q"] == "identity"
    rep2 = rep_from_json(G, data)
    assert rep2.is_identity
