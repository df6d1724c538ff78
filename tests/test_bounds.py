"""Bound terms: frozen oracles, invariances, and dual-route cross-checks."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from equibound.bounds import (
    BoundInputs,
    BoundReport,
    _reduced_matrix,
    alternative_bound,
    compute_report,
    csv_header,
    groupconv_bound,
    layer_norms,
    m_factor,
    main_bound,
    perturbation_rhs,
    report_to_csv_row,
    report_to_json,
    spectral_norm,
    tail_threshold,
    xi,
)
from equibound.equivariant import (
    EquivariantLayer,
    EquivariantNetwork,
    MarginNotReached,
    TrainConfig,
    build_network,
    empirical_margin_loss,
    margins,
    train,
)
from equibound.groups import build_group
from equibound.irreps import (
    SharedIrrep,
    direct_sum,
    group_circulant,
    irrep_by_id,
    irreps_of,
    regular_representation,
    restricted_frequency_rep,
    stack_rep,
    trivial_stack,
)
from equibound.kernels import expand_coefficients
from equibound.verify import dense_spectral_oracle


def _regular_net(kind="cyclic", N=4, channels=(2, 1), seed=0):
    """Standard classifier: regular input, regular hidden, trivial output."""
    G = build_group(kind, N)
    inp = regular_representation(G)
    return G, build_network(G, inp, list(channels), 2, seed=seed)


def _all_regular_net(kind, N, counts, seed=0):
    """Network whose every rep, input and output included, is a regular stack."""
    G = build_group(kind, N)
    reg = regular_representation(G)
    reps = [stack_rep(reg, c) for c in counts]
    layers = [EquivariantLayer(a, b) for a, b in zip(reps, reps[1:])]
    rng = np.random.default_rng(seed)
    for layer in layers:
        layer.set_coefficients(
            {pid: rng.standard_normal(arr.shape) for pid, arr in layer.coefficients.items()}
        )
    return G, EquivariantNetwork(layers)


def _randomize(net, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        layer.set_coefficients(
            {
                pid: scale * rng.standard_normal(co.shape)
                for pid, co in layer.coefficients.items()
            }
        )
    return net


def _inputs(net, m=512, gamma=1.0, B=2.0, margin_loss=0.1, **kw):
    return BoundInputs(
        net=net, m=m, gamma=gamma, B=B, train_margin_loss=margin_loss, **kw
    )


# ------------------------------------------------------------ spectral norm


def test_spectral_norm_identity_and_diag():
    assert spectral_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-14)
    assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-14)


def test_spectral_norm_matches_svd_dense_path():
    rng = np.random.default_rng(0)
    for shape in ((3, 3), (10, 4), (50, 50)):
        W = rng.standard_normal(shape)
        assert abs(spectral_norm(W) - np.linalg.norm(W, 2)) < 1e-10


def test_spectral_norm_power_iteration_path():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((100, 80))  # min dim > 64 forces iteration
    assert abs(spectral_norm(W) - np.linalg.norm(W, 2)) < 1e-10 * np.linalg.norm(W, 2)


@pytest.mark.parametrize("shape", [(10, 40), (40, 10), (64, 64), (100, 80), (80, 100)])
def test_spectral_norm_complex_matches_numpy(shape):
    """Complex input, on the Gram route (short side <= 64) and the iterating one."""
    rng = np.random.default_rng(2)
    M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = np.linalg.norm(M, 2)
    rtol = 1e-13 if min(shape) <= 64 else 1e-10
    assert abs(spectral_norm(M) - ref) <= rtol * ref


def test_spectral_norm_group_circulant_oracle():
    G = build_group("cyclic", 4)
    W = group_circulant(G, np.array([1.0, 2.0, 3.0, 4.0]))
    assert spectral_norm(W) == pytest.approx(10.0, abs=1e-10)


def test_spectral_norm_falls_back_to_gram_when_iteration_stalls():
    """Top singular values 1 and sqrt(1 - 1e-5) keep power iteration past
    its step cap; the short-side Gram matrix gives the exact value."""
    W = np.zeros((65, 4097))
    W[np.arange(65), np.arange(65)] = 0.5
    W[0, 0], W[1, 1] = 1.0, math.sqrt(1.0 - 1e-5)
    assert abs(spectral_norm(W) - 1.0) <= 1e-15


@pytest.mark.parametrize("shape", [(5, 9), (70, 66)], ids=["gram", "iteration"])
def test_spectral_norm_of_zero_matrix(shape):
    assert spectral_norm(np.zeros(shape)) == 0.0


def test_spectral_norm_rejects_non_finite():
    with pytest.raises(ValueError):
        spectral_norm(np.array([[1.0, np.inf], [0.0, 1.0]]))


# ------------------------------------------------------------------- xi


def test_xi_frozen_values():
    assert xi(1) == pytest.approx(2.0, abs=1e-14)
    assert xi(2) == pytest.approx(2.5, abs=1e-14)


def _xi_exact(m: int) -> Fraction:
    """sum_k C(m,k) k^k (m-k)^(m-k) / m^m as an exact rational (0^0 = 1)."""
    return Fraction(
        sum(math.comb(m, k) * k**k * (m - k) ** (m - k) for k in range(m + 1)), m**m
    )


def test_xi_matches_exact_summation_small():
    for m in [*range(1, 31), 64, 200, 400]:
        exact = float(_xi_exact(m))
        assert abs(xi(m) - exact) <= 4 * np.spacing(exact), m


def test_xi_matches_float_summation_medium():
    for m in (100, 333, 1000):
        direct = sum(
            math.comb(m, k) * (k / m) ** k * ((m - k) / m) ** (m - k)
            for k in range(0, m + 1)
        )
        assert abs(xi(m) - direct) <= 1e-10 * direct


def test_xi_validation():
    with pytest.raises(ValueError):
        xi(0)


def test_xi_grows_like_sqrt_m():
    ms = [10**k for k in range(1, 7)]
    values = [xi(m) for m in ms]
    assert all(b > a for a, b in zip(values, values[1:]))
    # xi(m) = 1 + Q(m) = sqrt(pi m / 2) + 2/3 + O(1/sqrt(m)); the residual
    # times sqrt(m) rises towards sqrt(pi / 2) / 12 = 0.1044.
    for m, value in zip(ms, values):
        assert abs(value - math.sqrt(math.pi * m / 2) - 2 / 3) <= 0.11 / math.sqrt(m), m


# ---------------------------------------------------- Fourier Frobenius sum


def test_fourier_sum_single_complex_block():
    """One complex-type block (a, b): S = a^2 + b^2, dense Fro^2 doubles it."""
    G = build_group("cyclic", 4)
    rep = restricted_frequency_rep(G, 1, False)
    layer = EquivariantLayer(rep, rep)
    a, b = 0.8, -1.3
    layer.set_coefficients({"freq:1": np.array([[[a, b]]])})
    assert layer_norms(layer)[2] == pytest.approx(a * a + b * b, rel=1e-14)
    assert np.sum(layer.matrix**2) == pytest.approx(2 * (a * a + b * b), rel=1e-12)
    assert spectral_norm(layer.matrix) == pytest.approx(math.hypot(a, b), rel=1e-12)


def test_fourier_sum_dual_route_via_superblocks():
    """S_l equals the superblock Frobenius masses divided by irrep dims."""
    G, net = _all_regular_net("dihedral", 3, (2, 2, 2), seed=6)
    for layer in net.layers:
        dims = {b.irrep_id: b.dim for b in layer.shared}
        blocks = layer.superblocks()
        via_blocks = sum(
            float(np.sum(B**2)) / dims[pid] for pid, B in blocks.items()
        )
        direct = layer_norms(layer)[2]
        assert direct == pytest.approx(via_blocks, rel=1e-12)
        # the orthogonal change of basis preserves Frobenius mass
        dense_fro2 = float(np.sum(layer.matrix**2))
        assert dense_fro2 == pytest.approx(
            sum(float(np.sum(B**2)) for B in blocks.values()), rel=1e-10
        )


def test_fourier_sum_upper_bounds_spectral_norm_squared():
    G, net = _regular_net("cyclic", 6, channels=(3, 2), seed=8)
    _randomize(net, seed=9)
    for layer in net.layers:
        assert layer_norms(layer)[2] >= spectral_norm(layer.matrix) ** 2 - 1e-10


def test_fourier_sum_zero_layer():
    G = build_group("cyclic", 4)
    reg = regular_representation(G)
    assert layer_norms(EquivariantLayer(reg, reg))[2] == 0.0


# --------------------------------------------------------------- m factors


def test_m_factor_all_regular_frozen_value():
    """Two regular-to-regular C_4 layers with 4 channels each: 160 ln 48."""
    G, net = _all_regular_net("cyclic", 4, (4, 4, 4), seed=0)
    expected = 160.0 * math.log(48.0)
    assert m_factor(net, 1, 0.5) == pytest.approx(expected, rel=1e-14)
    assert m_factor(net, 2, 0.5) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(619.39, abs=0.01)


def test_m_factor_classifier_hand_computation():
    """Regular input, 2 regular channels, 2 trivial outputs, eta = 1/2.

    Multiplicities over non-input reps: hidden 2+2+2, output 2, so the
    log argument is 8 / (1 - 1/2) = 16.  Worst products: layer 1 takes
    the 2-dim irrep (5 * 1 * 2 * 2 = 20), layer 2 the trivial one
    (5 * 2 * 2 * 1 = 20).
    """
    G = build_group("cyclic", 4)
    net = build_network(G, regular_representation(G), [2], 2, seed=0)
    assert m_factor(net, 1, 0.5) == pytest.approx(20 * math.log(16.0), rel=1e-14)
    assert m_factor(net, 2, 0.5) == pytest.approx(20 * math.log(16.0), rel=1e-14)


def test_m_factor_trivial_group_collapse():
    """For C_1 every rep is a trivial stack and the formula collapses."""
    G = build_group("cyclic", 1)
    net = build_network(G, trivial_stack(G, 3), [4, 5], 2, seed=0)
    total = 4 + 5 + 2
    for l, (m_in, m_out) in enumerate([(3, 4), (4, 5), (5, 2)], start=1):
        expected = 5 * m_in * m_out * math.log(total / 0.5)
        assert m_factor(net, l, 0.5) == pytest.approx(expected, rel=1e-14)


def test_m_factor_eta_divergence():
    G, net = _regular_net()
    base = m_factor(net, 1, 0.5)
    assert m_factor(net, 1, 1.0 - 1e-12) > 5 * base


def _m_factor_reference(net, l, eta):
    """M(l, eta) by a loop over the whole irrep catalog, from the reps alone."""
    total = sum(mult for rep in net.reps[1:] for _, mult in rep.blocks)
    mults_in = dict(net.reps[l - 1].blocks)
    mults_out = dict(net.reps[l].blocks)
    worst = 0.0
    for psi in irreps_of(net.group):
        worst = max(worst, 5.0 * mults_in.get(psi.id, 0) * mults_out.get(psi.id, 0) * psi.type_c)
    return math.log(total / (1.0 - eta)) * worst


@pytest.mark.parametrize("kind, N", [("cyclic", 1), ("cyclic", 5), ("cyclic", 8), ("dihedral", 4), ("quaternion", 8)])
def test_m_factor_matches_catalog_loop(kind, N):
    G = build_group(kind, N)
    if kind == "quaternion":
        inputs = (regular_representation(G), stack_rep(regular_representation(G), 2))
    else:
        reflected = kind == "dihedral"
        inputs = (
            restricted_frequency_rep(G, 1, reflected),
            direct_sum([restricted_frequency_rep(G, f, reflected) for f in (0, 1, 2, 3)]),
            trivial_stack(G, 3),
        )
    for inp in inputs:
        net = build_network(G, inp, [3, 2], 2, seed=0)
        for eta in (0.5, 0.2):
            for l in range(1, net.depth + 1):
                assert m_factor(net, l, eta) == _m_factor_reference(net, l, eta)
        assert _inputs(net, eta=0.2).m_factors == tuple(
            _m_factor_reference(net, l, 0.2) for l in range(1, net.depth + 1)
        )


def test_m_factor_validation():
    G, net = _regular_net()
    with pytest.raises(ValueError):
        m_factor(net, 0, 0.5)
    with pytest.raises(ValueError):
        m_factor(net, net.depth + 1, 0.5)
    with pytest.raises(ValueError):
        m_factor(net, 1, 1.0)


# ----------------------------------------------------- sigma0 and KL term


def test_report_sigma0_formula():
    G, net = _regular_net(seed=2)
    _randomize(net, seed=3)
    gamma, B, eta = 2.0, 1.5, 0.5
    sigma = compute_report(_inputs(net, gamma=gamma, B=B, eta=eta)).sigma0
    specs = [spectral_norm(l.matrix) for l in net.layers]
    L = len(specs)
    beta = math.prod(specs) ** (1.0 / L)
    total = sum(math.sqrt(m_factor(net, l, eta)) for l in range(1, L + 1))
    expected = gamma / (4 * math.e * B * beta ** (L - 1) * total)
    assert sigma == pytest.approx(expected, rel=1e-12)


def test_report_sigma0_weight_scaling_homogeneity():
    """Scaling every layer by lambda scales sigma0 by lambda^-(L-1)."""
    G, net = _regular_net(seed=4)
    _randomize(net, seed=5)
    sigma1 = compute_report(_inputs(net, gamma=1.0, B=1.0, eta=0.5)).sigma0
    lam = 1.7
    for layer in net.layers:
        layer.set_coefficients(
            {pid: lam * co for pid, co in layer.coefficients.items()}
        )
    sigma2 = compute_report(_inputs(net, gamma=1.0, B=1.0, eta=0.5)).sigma0
    assert sigma2 * lam ** (net.depth - 1) == pytest.approx(sigma1, rel=1e-10)


def test_report_kl_is_sum_of_squares_over_2sigma2():
    G, net = _regular_net(seed=4)
    _randomize(net, seed=5)
    report = compute_report(_inputs(net))
    total = sum(layer_norms(l)[2] for l in net.layers)
    assert report.kl == pytest.approx(total / (2 * report.sigma0**2), rel=1e-12)
    # Scaling every layer by lambda scales S_l by lambda^2 and sigma0 by
    # lambda^-(L-1), so the KL term by lambda^(2L).
    lam = 1.3
    for layer in net.layers:
        layer.set_coefficients({pid: lam * co for pid, co in layer.coefficients.items()})
    scaled = compute_report(_inputs(net)).kl
    assert scaled == pytest.approx(report.kl * lam ** (2 * net.depth), rel=1e-10)


# ------------------------------------------------------------- perturbation


def test_perturbation_rhs_formula_and_admissibility():
    G, net = _regular_net("cyclic", 4, channels=(2, 2), seed=21)
    _randomize(net, seed=22)
    rng = np.random.default_rng(23)
    specs = [spectral_norm(l.matrix) for l in net.layers]
    perturbations = []
    for layer, w in zip(net.layers, specs):
        U = rng.standard_normal(layer.matrix.shape)
        U *= 0.5 * w / (net.depth * spectral_norm(U))
        perturbations.append(U)
    u_norms = [spectral_norm(U) for U in perturbations]
    B = 1.3
    rhs = perturbation_rhs(specs, u_norms, B)
    expected = math.e * B * math.prod(specs) * sum(u / s for u, s in zip(u_norms, specs))
    assert rhs == pytest.approx(expected, rel=1e-10)
    assert perturbation_rhs(specs, [0.0] * net.depth, B) == 0.0
    with pytest.raises(ValueError):
        perturbation_rhs(specs, [2.0 * specs[0]] + u_norms[1:], B)
    with pytest.raises(ValueError):
        perturbation_rhs(specs, u_norms[:-1], B)


# ------------------------------------------------------------ tail threshold


def test_tail_threshold_single_trivial_block():
    """m = m' = c = 1, sigma = 1, t = 1 gives threshold sqrt(5)."""
    G = build_group("cyclic", 1)
    one = trivial_stack(G, 1)
    tb = tail_threshold(one, one, 1.0, 1.0)
    assert tb.threshold == pytest.approx(math.sqrt(5.0), rel=1e-14)
    assert tb.tight_threshold == pytest.approx(math.sqrt(1 + 2 + 2), rel=1e-14)
    assert tb.probability_bound == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_tail_threshold_regular_c4():
    G = build_group("cyclic", 4)
    reg = regular_representation(G)
    sigma, t = 0.7, 1.5
    tb = tail_threshold(reg, reg, sigma, t)
    # shared irreps with multiplicity 1 each: types c = 1, 2, 1
    assert tb.threshold == pytest.approx(sigma * math.sqrt(5 * 2 * t), rel=1e-12)
    tight = sigma * math.sqrt(
        max(c + 2 * c * math.sqrt(t) + 2 * t for c in (1, 2))
    )
    assert tb.tight_threshold == pytest.approx(tight, rel=1e-12)
    assert tb.probability_bound == pytest.approx(3 * math.exp(-t), rel=1e-12)


def test_tail_threshold_sigma_homogeneity_and_vacuous_regime():
    G = build_group("dihedral", 3)
    reg = regular_representation(G)
    tb1 = tail_threshold(reg, reg, 1.0, 2.0)
    tb2 = tail_threshold(reg, reg, 3.0, 2.0)
    assert tb2.threshold == pytest.approx(3 * tb1.threshold, rel=1e-14)
    assert tb2.tight_threshold == pytest.approx(3 * tb1.tight_threshold, rel=1e-14)
    assert tb2.probability_bound == tb1.probability_bound
    # small t: the probability bound may exceed 1 and is reported as is
    assert tail_threshold(reg, reg, 1.0, 0.01).probability_bound > 1.0


def test_tail_threshold_validation():
    G = build_group("cyclic", 4)
    reg = regular_representation(G)
    with pytest.raises(ValueError):
        tail_threshold(reg, reg, 0.0, 1.0)
    with pytest.raises(ValueError):
        tail_threshold(reg, reg, 1.0, 0.0)


# -------------------------------------------------------------- main bound


def test_main_bound_assembles_its_parts():
    """Recompute both variants from the reported per-layer quantities."""
    G, net = _regular_net(seed=10)
    _randomize(net, seed=11)
    m, gamma, B, eta, delta = 400, 1.5, 2.0, 0.5, 0.05
    report = compute_report(_inputs(net, m, gamma, B, 0.25, eta=eta, delta=delta))
    L = net.depth
    specs = report.spectral_norms
    sums = report.fourier_frobenius_sums
    ms = report.m_factors
    lead = (
        32
        * math.e**4
        * B**2
        * math.prod(s**2 for s in specs)
        / (gamma**2 * m * eta)
        * sum(math.sqrt(v) for v in ms) ** 2
        * sum(s_l / s**2 for s_l, s in zip(sums, specs))
    )
    log_arg = math.log(report.xi_m * L * m ** (1 + 1 / (2 * L)) / delta)
    assert report.bound_main == pytest.approx(
        0.25 + math.sqrt(lead + log_arg / (2 * m)), rel=1e-12
    )
    assert report.bound_main_as_written == pytest.approx(
        0.25 + math.sqrt(lead + log_arg / (2 * gamma**2 * m)), rel=1e-12
    )


def test_main_bound_identity_net_closed_form():
    """One identity layer over C_1: every term is computable by hand."""
    G = build_group("cyclic", 1)
    two = trivial_stack(G, 2)
    layer = EquivariantLayer(two, two)
    layer.set_coefficients({"triv": np.eye(2)[:, :, None]})
    net = EquivariantNetwork([layer])
    m = 100
    report = compute_report(
        BoundInputs(net=net, m=m, gamma=1.0, B=1.0, train_margin_loss=0.0)
    )
    M1 = 5 * 2 * 2 * math.log(2 / 0.5)
    assert report.spectral_norms == (1.0,)
    assert report.fourier_frobenius_sums == (2.0,)
    assert report.m_factors == pytest.approx((M1,), rel=1e-14)
    sigma0 = 1.0 / (4 * math.e * math.sqrt(M1))
    assert report.sigma0 == pytest.approx(sigma0, rel=1e-12)
    assert report.kl == pytest.approx(1.0 / sigma0**2, rel=1e-12)
    xi_m = sum(
        math.comb(m, k) * (k / m) ** k * ((m - k) / m) ** (m - k)
        for k in range(0, m + 1)
    )
    lead = 32 * math.e**4 / (m * 0.5) * M1 * 2.0
    conf = math.log(xi_m * 1 * m**1.5 / 0.05) / (2 * m)
    assert report.bound_main == pytest.approx(math.sqrt(lead + conf), rel=1e-9)


def test_main_bound_decreases_in_gamma():
    G, net = _regular_net(seed=12)
    _randomize(net, seed=13)
    b1 = compute_report(_inputs(net, gamma=1.0, margin_loss=0.0)).bound_main
    b2 = compute_report(_inputs(net, gamma=2.0, margin_loss=0.0)).bound_main
    assert b2 < b1


def test_main_bound_scale_invariance_factorwise():
    """Rebalancing layer scales (product fixed) leaves each factor alone."""
    G, net = _regular_net("cyclic", 8, channels=(2, 2), seed=12)
    _randomize(net, seed=13)
    prod0 = math.prod(spectral_norm(l.matrix) ** 2 for l in net.layers)
    ratios0 = [
        layer_norms(l)[2] / spectral_norm(l.matrix) ** 2 for l in net.layers
    ]
    lams = [2.0, 0.25, 1.0 / (2.0 * 0.25)]
    assert math.prod(lams) == pytest.approx(1.0, abs=1e-15)
    for lam, layer in zip(lams, net.layers):
        layer.set_coefficients(
            {pid: lam * co for pid, co in layer.coefficients.items()}
        )
    prod1 = math.prod(spectral_norm(l.matrix) ** 2 for l in net.layers)
    ratios1 = [
        layer_norms(l)[2] / spectral_norm(l.matrix) ** 2 for l in net.layers
    ]
    assert prod1 == pytest.approx(prod0, rel=1e-8)
    for r0, r1 in zip(ratios0, ratios1):
        assert r1 == pytest.approx(r0, rel=1e-8)


def test_main_bound_rejects_zero_norm_layer():
    G = build_group("cyclic", 4)
    reg = regular_representation(G)
    net = EquivariantNetwork([EquivariantLayer(reg, reg)])
    with pytest.raises(ValueError):
        main_bound(_inputs(net))
    # Reps that share no irrep leave the layer without superblocks.
    disjoint = EquivariantLayer(trivial_stack(G, 2), restricted_frequency_rep(G, 1, False))
    assert disjoint.shared == ()
    net = EquivariantNetwork([disjoint])
    with pytest.raises(ValueError, match="zero spectral norm"):
        main_bound(_inputs(net))


def test_bound_inputs_validation():
    G, net = _regular_net(seed=14)
    with pytest.raises(ValueError):
        _inputs(net, m=0)
    # Squares of 1e-300 underflow to 0, of 1e300 overflow.
    for bad in (0.0, -1.0, math.nan, math.inf, 1e-300, 1e300):
        with pytest.raises(ValueError, match="gamma must"):
            _inputs(net, gamma=bad)
        with pytest.raises(ValueError, match="B must"):
            _inputs(net, B=bad)
    with pytest.raises(ValueError, match="gamma"):
        empirical_margin_loss(net, np.zeros((1, 4)), np.zeros(1, dtype=int), math.nan)
    with pytest.raises(ValueError):
        _inputs(net, eta=1.0)
    with pytest.raises(ValueError):
        _inputs(net, delta=0.0)


# ------------------------------------------------- norms from superblocks


@pytest.mark.parametrize(
    "kind, N, channels, rtol",
    [
        ("cyclic", 1, (6, 5), 1e-12),
        ("cyclic", 8, (6, 5), 1e-12),
        ("dihedral", 4, (5, 4), 1e-12),
        ("quaternion", 8, (4, 3), 1e-12),
        # A reduced matrix with both sides above 64 takes spectral_norm's
        # power iteration.  Its residual stop leaves an error near 1e-11,
        # held here to the tolerance of test_spectral_norm_power_iteration_path.
        ("cyclic", 1, (80, 70), 1e-10),
        # The freq irreps' reduced matrices are 36 x 40 complex.
        ("cyclic", 8, (40, 36), 1e-12),
    ],
)
def test_report_norms_match_dense_matrix(kind, N, channels, rtol):
    """Superblock norms equal the dense W's: the change of basis is orthogonal."""
    G = build_group(kind, N)
    if kind == "quaternion":
        inp = regular_representation(G)
    else:
        inp = restricted_frequency_rep(G, 1, kind == "dihedral")
    net = _randomize(build_network(G, inp, list(channels), 3, seed=31), seed=32)
    report = compute_report(_inputs(net))
    for layer, spec, fro in zip(net.layers, report.spectral_norms, report.frobenius_norms):
        assert spec == pytest.approx(dense_spectral_oracle(layer.matrix), rel=rtol)
        assert fro == pytest.approx(np.linalg.norm(layer.matrix), rel=1e-12)


# (group, irrep) pairs covering every type: real with d = 1 and d = 2,
# complex, and quaternionic.
_REDUCTION_CASES = [
    ("cyclic", 1, "triv"),
    ("dihedral", 4, "freq:1"),
    ("dihedral", 5, "freq:2"),
    ("cyclic", 3, "freq:1"),
    ("cyclic", 8, "freq:3"),
    ("cyclic", 16, "freq:7"),
    ("quaternion", 8, "quat"),
]


@pytest.mark.parametrize("short", [5, 36, 70])
@pytest.mark.parametrize("wide", [True, False], ids=["wide", "tall"])
@pytest.mark.parametrize("kind, N, irrep_id", _REDUCTION_CASES)
def test_reduced_norm_equals_superblock_norm(kind, N, irrep_id, short, wide):
    """The reduced matrix's norm is the dense superblock's largest singular value.

    `short` is the reduced matrix's short side.  The quaternionic complex
    adjoint is twice the multiplicities on each side, so there it is
    rounded down to even (5 becomes 4).
    """
    psi = irrep_by_id(build_group(kind, N), irrep_id)
    scale = 2 if psi.type_c == 4 else 1
    m_short, m_long = short // scale, (short + 9) // scale
    m_out, m_in = (m_short, m_long) if wide else (m_long, m_short)
    b = SharedIrrep(psi, 0, m_in, 0, m_out)
    coef = np.random.default_rng(short).standard_normal((m_out, m_in, psi.type_c))
    reduced = _reduced_matrix(b, coef)
    assert min(reduced.shape) == scale * m_short
    ref = np.linalg.svd(expand_coefficients(coef, b.basis), compute_uv=False)[0]
    rtol = 1e-13 if min(reduced.shape) <= 64 else 1e-10
    assert abs(spectral_norm(reduced) - ref) <= rtol * ref


def test_compute_report_never_expands_a_superblock(monkeypatch):
    G = build_group("quaternion", 8)
    net = build_network(G, regular_representation(G), [3, 2], 2, seed=40)
    _randomize(net, seed=41)
    oracles = [dense_spectral_oracle(layer.matrix) for layer in net.layers]
    for layer in net.layers:
        layer.mark_dirty()  # drop the superblocks the oracle expanded

    def expand(layer):
        raise AssertionError("compute_report expanded a superblock")

    monkeypatch.setattr(EquivariantLayer, "superblocks", expand)
    report = compute_report(_inputs(net))
    assert report.spectral_norms == pytest.approx(oracles, rel=1e-12)


def test_compute_report_never_reads_dense_matrix(monkeypatch):
    G, net = _regular_net("dihedral", 3, channels=(2, 2), seed=33)
    _randomize(net, seed=34)
    expected = compute_report(_inputs(net))

    def dense_read(layer):
        raise AssertionError("compute_report read a dense layer matrix")

    monkeypatch.setattr(EquivariantLayer, "matrix", property(dense_read))
    report = compute_report(_inputs(net))
    assert report_to_csv_row(report) == report_to_csv_row(expected)


def test_train_margins_and_report_never_build_a_dense_basis():
    """Stacked reps apply their factored basis; only oracles build the dense Q."""
    G = build_group("cyclic", 8)
    net = build_network(G, stack_rep(regular_representation(G), 2), [128, 64], 2, seed=37)
    assert net.layers[1].blockwise and not net.layers[0].blockwise
    rng = np.random.default_rng(38)
    X = rng.standard_normal((96, net.input_rep.dim))
    y = rng.integers(0, 2, len(X))
    cfg = TrainConfig(gamma=1e6, max_epochs=1, batch_size=32, seed=39)
    with pytest.raises(MarginNotReached):
        train(net, X, y, cfg)
    margins(net, X, y)
    compute_report(_inputs(net))
    for rep in net.reps:
        assert "Q" not in rep.__dict__, rep


def test_report_reuses_inputs_terms_exactly():
    """Sums, factors and KL read once per inputs equal the public functions, bit for bit."""
    G, net = _regular_net("cyclic", 4, channels=(2, 3), seed=35)
    _randomize(net, seed=36)
    inputs = _inputs(net, m=300)
    report = compute_report(inputs)
    assert report.fourier_frobenius_sums == tuple(
        layer_norms(layer)[2] for layer in net.layers
    )
    assert report.m_factors == tuple(m_factor(net, l, 0.5) for l in range(1, net.depth + 1))
    assert report.kl == sum(report.fourier_frobenius_sums) / (2.0 * report.sigma0**2)
    assert report.xi_m == xi.__wrapped__(300)
    again = compute_report(inputs)
    assert report_to_csv_row(again) == report_to_csv_row(report)


# ---------------------------------------------------------- groupconv bound


def test_groupconv_equals_main_on_all_regular_nets():
    """With every rep a regular stack the two formulas coincide exactly."""
    cases = (
        ("cyclic", 4, (1, 2, 2)),
        ("dihedral", 3, (2, 2, 2)),
        ("quaternion", 8, (1, 1, 2)),
    )
    for kind, N, counts in cases:
        G, net = _all_regular_net(kind, N, counts, seed=15)
        inputs = _inputs(net, m=777, gamma=1.2, B=1.7, margin_loss=0.3)
        report = compute_report(inputs)
        assert report.bound_groupconv == pytest.approx(report.bound_main, rel=1e-12)


@pytest.mark.parametrize(
    "kind, N", [("cyclic", 1), ("cyclic", 4), ("cyclic", 8), ("dihedral", 4)]
)
def test_groupconv_covers_main_on_built_nets(kind, N):
    """A built net's input rep and trivial logits are regular stacks only
    over C1, so only there do the bounds agree; elsewhere each rep is
    counted as its regular-stack cover and the group-conv bound is larger."""
    G = build_group(kind, N)
    inp = restricted_frequency_rep(G, 1, kind == "dihedral")
    net = build_network(G, inp, [3, 2], 2, seed=3)
    report = compute_report(_inputs(net, m=777, gamma=1.2, B=1.7, margin_loss=0.3))
    if N == 1:
        assert report.bound_groupconv == pytest.approx(report.bound_main, rel=1e-12)
    else:
        assert report.bound_groupconv >= report.bound_main


def test_groupconv_constants_per_group():
    oracle = {
        ("cyclic", 3): (2.0, 2.0),
        ("cyclic", 4): (2.0, 3.0),
        ("dihedral", 4): (4.0, 6.0),
        ("quaternion", 8): (4.0, 5.0),
    }
    for (kind, N), (d_h, e_h) in oracle.items():
        G, net = _all_regular_net(kind, N, (1, 1, 1), seed=16)
        gc = groupconv_bound(_inputs(net))
        assert gc["D_H"] == d_h
        assert gc["E_H"] == e_h


def test_groupconv_q_h_hand_value():
    G, net = _all_regular_net("cyclic", 4, (1, 2, 2), seed=17)
    gc = groupconv_bound(_inputs(net))
    sqrt_cc = math.sqrt(1 * 2) + math.sqrt(2 * 2)
    expected = sqrt_cc**2 * 2.0 * math.log(2 * 3.0 * (1 + 2))
    assert gc["Q_H"] == pytest.approx(expected, rel=1e-12)


def test_groupconv_rejects_non_regular_hidden():
    G = build_group("cyclic", 4)
    reg = regular_representation(G)
    odd = restricted_frequency_rep(G, 1, False)
    layers = [EquivariantLayer(reg, odd), EquivariantLayer(odd, trivial_stack(G, 2))]
    for layer in layers:
        layer.set_coefficients(
            {pid: np.ones_like(co) for pid, co in layer.coefficients.items()}
        )
    bad = EquivariantNetwork(layers)
    with pytest.raises(ValueError):
        groupconv_bound(_inputs(bad))


# --------------------------------------------------------- alternative bound


def test_alternative_bound_formula():
    """Norm-only bound: explicit 1/sqrt|H| times the spectral complexity."""
    G, net = _regular_net("cyclic", 4, seed=19)
    _randomize(net, seed=20)
    inputs = _inputs(net, m=640, gamma=1.0, B=2.0, margin_loss=0.0)
    value = alternative_bound(inputs)
    specs = [spectral_norm(l.matrix) for l in net.layers]
    fros = [float(np.linalg.norm(l.matrix)) for l in net.layers]
    L = net.depth
    h = max(rep.dim for rep in net.reps)
    assert h == 2 * G.order  # widest hidden stack
    inner = (
        2  # largest irrep dimension of C_4
        * L**2
        * h
        * math.log(2 * L * h)
        * math.prod(s**2 for s in specs)
        * sum(f**2 / s**2 for f, s in zip(fros, specs))
        / (inputs.gamma**2 * inputs.m)
    )
    assert value == pytest.approx(math.sqrt(inner / G.order), rel=1e-12)


def test_alternative_bound_no_margin_term():
    G, net = _regular_net("cyclic", 4, seed=19)
    _randomize(net, seed=20)
    a = alternative_bound(_inputs(net, margin_loss=0.0))
    b = alternative_bound(_inputs(net, margin_loss=0.4))
    assert a == b


# ------------------------------------------------------- trained-net report


@pytest.fixture(scope="module")
def trained_report():
    from equibound.datasets import generate_synthetic, input_rep_for, sample

    spec = generate_synthetic("so2", 4, max_frequency=2, seed=31)
    ds = sample(spec, 256, "none", seed=32)
    test = sample(spec, 512, "group", seed=33)
    G = build_group("cyclic", 4)
    net = build_network(G, input_rep_for(spec, G), [8, 4], 2, seed=34)
    cfg = TrainConfig(
        gamma=1.0, max_epochs=500, learning_rate=0.02, batch_size=64, seed=35
    )
    try:
        train(net, ds.X, ds.y, cfg)
    except MarginNotReached:
        pass  # the report is well defined either way
    inputs = BoundInputs(
        net=net,
        m=len(ds),
        gamma=1.0,
        B=ds.B,
        train_margin_loss=empirical_margin_loss(net, ds.X, ds.y, 1.0),
        train_err=empirical_margin_loss(net, ds.X, ds.y, 0.0),
        test_err=empirical_margin_loss(net, test.X, test.y, 0.0),
    )
    return net, compute_report(inputs)


def test_report_fields_populated(trained_report):
    net, report = trained_report
    assert report.group_kind == "cyclic"
    assert report.N == 4
    assert report.order == 4
    assert len(report.spectral_norms) == net.depth
    assert len(report.frobenius_norms) == net.depth
    assert len(report.fourier_frobenius_sums) == net.depth
    assert len(report.m_factors) == net.depth
    assert report.bound_main > 0
    assert report.bound_main_as_written > 0
    assert report.bound_groupconv > 0
    assert report.bound_alt > 0
    assert np.isfinite(report.kl)
    assert report.sigma0 > 0
    assert report.generalization_error == pytest.approx(
        report.test_err - report.train_err
    )


def test_report_is_built_whole_and_frozen(trained_report):
    """Every field is given at construction, and none changes after it."""
    net, report = trained_report
    assert all(
        f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        for f in dataclasses.fields(BoundReport)
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.bound_alt = 0.0


def test_report_csv_row_matches_header(trained_report):
    net, report = trained_report
    header = csv_header(net.depth)
    row = report_to_csv_row(report)
    assert len(header) == len(row)
    assert header[:4] == ["group_kind", "N", "H_order", "m"]
    assert header[-3:] == ["D_H", "E_H", "Q_H"]
    # repr round-trip: parsing the strings back recovers the exact floats
    assert float(row[header.index("bound_main")]) == report.bound_main
    assert float(row[header.index("sigma0")]) == report.sigma0
    assert int(row[header.index("H_order")]) == report.order


def test_report_json_roundtrip(trained_report):
    import json

    net, report = trained_report
    data = report_to_json(report)
    assert data["bound_main"] == report.bound_main
    assert data["H_order"] == report.order
    assert data["spectral_norms"] == list(report.spectral_norms)
    parsed = json.loads(json.dumps(data))
    assert parsed["bound_alt"] == report.bound_alt


def test_report_row_format_is_pinned():
    """The CSV header, CSV strings and JSON keys of a hand-built report."""
    assert csv_header(3) == [
        "group_kind", "N", "H_order", "m", "gamma", "eta", "delta", "B",
        "train_err", "train_margin_loss", "test_err", "GE",
        "spec_1", "spec_2", "spec_3", "fro_1", "fro_2", "fro_3",
        "S_1", "S_2", "S_3", "M_1", "M_2", "M_3",
        "xi_m", "sigma0", "kl", "bound_main", "bound_main_as_written",
        "bound_groupconv", "bound_alt", "D_H", "E_H", "Q_H",
    ]
    assert csv_header(1)[12:16] == ["spec_1", "fro_1", "S_1", "M_1"]
    report = BoundReport(
        group_kind="dihedral", N=4, order=8, m=3200, gamma=10, eta=0.5,
        delta=0.05, B=1.25, train_err=0.0, train_margin_loss=0.01,
        test_err=0.125, generalization_error=0.125,
        spectral_norms=(2.0, 1.5, 0.75), frobenius_norms=(3.0, 2.5, 1.0),
        fourier_frobenius_sums=(9.0, 6.25, 1.0), m_factors=(1 / 3, 40.0, 5.0),
        xi_m=1e-300, sigma0=2.5e-05, kl=1e10, bound_main=0.1 + 0.2,
        bound_main_as_written=7.0, bound_groupconv=float("nan"),
        bound_alt=float("nan"), D_H=float("nan"), E_H=float("nan"), Q_H=float("nan"),
    )
    assert report_to_csv_row(report) == [
        "dihedral", "4", "8", "3200", "10.0", "0.5", "0.05", "1.25",
        "0.0", "0.01", "0.125", "0.125",
        "2.0", "1.5", "0.75", "3.0", "2.5", "1.0",
        "9.0", "6.25", "1.0", "0.3333333333333333", "40.0", "5.0",
        "1e-300", "2.5e-05", "10000000000.0", "0.30000000000000004", "7.0",
        "nan", "nan", "nan", "nan", "nan",
    ]
    data = report_to_json(report)
    assert list(data) == [
        "group_kind", "N", "H_order", "m", "gamma", "eta", "delta", "B",
        "train_err", "train_margin_loss", "test_err", "GE",
        "spectral_norms", "frobenius_norms", "fourier_frobenius_sums", "m_factors",
        "xi_m", "sigma0", "kl", "bound_main", "bound_main_as_written",
        "bound_groupconv", "bound_alt", "D_H", "E_H", "Q_H",
    ]
    assert data["gamma"] == 10 and data["H_order"] == 8 and data["GE"] == 0.125
    assert data["m_factors"] == [1 / 3, 40.0, 5.0]
