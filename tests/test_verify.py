"""Checker behavior: known-good inputs pass, corrupted inputs fail."""

import math

import numpy as np
import pytest

from equibound.equivariant import build_network
from equibound.groups import build_group
from equibound.irreps import (
    irrep_by_id,
    irreps_of,
    regular_matrices,
    regular_representation,
)
from equibound.verify import (
    CheckResult,
    character_type_oracle,
    check_equivariance,
    chi_square_mc_check,
    chi_square_threshold,
    convolution_theorem_check,
    dense_spectral_oracle,
    format_check_result,
    fourier_roundtrip,
    intertwiner_identity_check,
    mc_perturbation_check,
    mc_tail_check,
    rep_invariants_check,
)


# -------------------------------------------------------------- CheckResult


def test_check_result_pass_fail_logic():
    ok = CheckResult(name="x", max_violation=1e-12, trials=10, threshold=1e-10)
    assert ok.passed
    bad = CheckResult(name="x", max_violation=2e-10, trials=10, threshold=1e-10)
    assert not bad.passed
    edge = CheckResult(name="x", max_violation=0.0, trials=1, threshold=0.0)
    assert edge.passed
    # A check that ran no trials has shown nothing.
    empty = CheckResult(name="x", max_violation=-np.inf, trials=0, threshold=1e-9)
    assert not empty.passed


def test_format_check_result_line():
    r = CheckResult(name="demo", max_violation=3e-9, trials=7, threshold=1e-10)
    line = format_check_result(r)
    assert "demo" in line
    assert "trials=7" in line
    assert line.endswith("FAIL")
    r2 = CheckResult(name="demo", max_violation=0.0, trials=7, threshold=1e-10)
    assert format_check_result(r2).endswith("PASS")


# ------------------------------------------------------------ dense oracle


def test_dense_spectral_oracle_matches_numpy():
    rng = np.random.default_rng(0)
    W = rng.standard_normal((17, 9))
    assert dense_spectral_oracle(W) == pytest.approx(np.linalg.norm(W, 2), rel=1e-12)


def test_dense_spectral_oracle_size_cap():
    with pytest.raises(ValueError):
        dense_spectral_oracle(np.zeros((3000, 2)))


# --------------------------------------------------------- character types


def test_character_type_oracle_all_groups():
    for kind, N in (
        ("cyclic", 1),
        ("cyclic", 5),
        ("cyclic", 8),
        ("dihedral", 3),
        ("dihedral", 6),
        ("quaternion", 8),
    ):
        G = build_group(kind, N)
        for psi in irreps_of(G):
            assert character_type_oracle(psi, G) == psi.type_c


def test_character_type_oracle_rejects_garbage():
    G = build_group("cyclic", 8)
    psi = irrep_by_id(G, "freq:1")
    fake = type(
        "FakeIrrep",
        (),
        {"id": "fake", "characters": psi.characters * 1.23},
    )()
    with pytest.raises(ValueError):
        character_type_oracle(fake, G)


# ------------------------------------------------------- chi-square pieces


def test_chi_square_threshold_hand_values():
    assert chi_square_threshold(np.array([1.0]), 1.0) == pytest.approx(5.0, rel=1e-14)
    a = np.array([2.0, 1.0])
    x = 4.0
    expected = 3.0 + 2.0 * math.sqrt(5.0) * 2.0 + 2.0 * 2.0 * 4.0
    assert chi_square_threshold(a, x) == pytest.approx(expected, rel=1e-14)
    assert chi_square_threshold(np.zeros(3), 1.0) == 0.0
    with pytest.raises(ValueError):
        chi_square_threshold(np.array([1.0]), 0.0)


def test_chi_square_mc_check_holds():
    for a, x in ((np.array([1.0]), 1.0), (np.array([0.5, 2.0, 1.0]), 2.0)):
        result = chi_square_mc_check(a, x, trials=20000, seed=3)
        assert result.passed
        assert result.details["empirical"] <= result.details["bound"]


# ------------------------------------------------------------ equivariance


def test_check_equivariance_layer_and_network_pass():
    G = build_group("dihedral", 4)
    net = build_network(G, regular_representation(G), [2], 2, seed=1)
    for layer in net.layers:
        assert check_equivariance(layer, 1e-10).passed
    assert check_equivariance(net, 1e-8, n_inputs=8, seed=2).passed


def test_check_equivariance_detects_broken_layer():
    G = build_group("cyclic", 4)
    net = build_network(G, regular_representation(G), [2], 2, seed=3)
    layer = net.layers[0]
    rng = np.random.default_rng(4)
    layer._matrix = rng.standard_normal(layer.matrix.shape)
    layer._dirty = False
    assert not check_equivariance(layer, 1e-10).passed


def test_check_equivariance_rejects_other_types():
    with pytest.raises(TypeError):
        check_equivariance(np.eye(3), 1e-10)


# ---------------------------------------------------------- rep invariants


def test_rep_invariants_regular_pass():
    for kind, N in (("cyclic", 8), ("dihedral", 6), ("quaternion", 8)):
        G = build_group(kind, N)
        rep = regular_representation(G)
        assert rep_invariants_check(rep, regular_matrices(G)).passed


def test_rep_invariants_detect_wrong_rho():
    G = build_group("cyclic", 8)
    rep = regular_representation(G)
    rho = regular_matrices(G).copy()
    rho[3] = rho[5]  # wrong matrix for element 3
    result = rep_invariants_check(rep, rho)
    assert not result.passed
    assert result.max_violation > 0.5


# ------------------------------------------------------ intertwiner identity


def test_intertwiner_identity_three_types():
    for kind, N, pid in (
        ("dihedral", 4, "freq:1"),
        ("cyclic", 8, "freq:1"),
        ("quaternion", 8, "quat"),
    ):
        G = build_group(kind, N)
        psi = irrep_by_id(G, pid)
        result = intertwiner_identity_check(G, psi, trials=50, seed=5)
        assert result.passed
        assert result.trials == 50


# ------------------------------------------------- Fourier and convolution


def test_fourier_roundtrip_check():
    for kind, N in (("cyclic", 8), ("dihedral", 6)):
        G = build_group(kind, N)
        assert fourier_roundtrip(G, trials=10, seed=6).passed


def test_convolution_theorem_check():
    for kind, N in (("cyclic", 8), ("dihedral", 6), ("quaternion", 8)):
        G = build_group(kind, N)
        assert convolution_theorem_check(G, trials=10, seed=7).passed


# -------------------------------------------------------------- tail check


def test_mc_tail_check_regular_c4():
    G = build_group("cyclic", 4)
    reg = regular_representation(G)
    result = mc_tail_check(reg, reg, sigma=1.0, trials=4000, seed=8)
    assert result.passed
    # every (t, threshold kind) combination is recorded
    assert len(result.details) == 8
    for entry in result.details.values():
        assert entry["empirical"] <= entry["bound"] + 1e-12


def test_mc_tail_check_custom_grid():
    G = build_group("dihedral", 3)
    reg = regular_representation(G)
    result = mc_tail_check(reg, reg, sigma=0.5, trials=1000, t_grid=(1.0,), seed=9)
    assert result.passed
    assert set(result.details) == {"t=1.0:simplified", "t=1.0:tight"}


# ------------------------------------------------------ perturbation check


def test_mc_perturbation_check_trained_shape():
    G = build_group("cyclic", 4)
    net = build_network(G, regular_representation(G), [2, 2], 2, seed=10)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((10, 4))
    X *= 2.0 / np.linalg.norm(X, axis=1, keepdims=True)
    result = mc_perturbation_check(net, sigma=0.005, trials=50, X=X, B=2.0, seed=12)
    assert result.passed
    assert result.trials == 50
    assert result.details["inputs"] == 10
    assert result.details["rejected"] >= 0


def test_mc_perturbation_check_rejects_oversized_sigma():
    G = build_group("cyclic", 4)
    net = build_network(G, regular_representation(G), [2], 2, seed=13)
    X = np.eye(4)[:2]
    with pytest.raises(RuntimeError):
        mc_perturbation_check(net, sigma=100.0, trials=5, X=X, B=1.0, seed=14)
