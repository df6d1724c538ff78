"""Release gate: one test per shipped guarantee, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Every
test asserts its tolerance directly; items with a runtime budget assert
that too.  The budgets are generous on purpose: they catch algorithmic
regressions (an accidental O(n^3) loop), not machine jitter.

The heavy items are 08 (a five-group training sweep, a few minutes) and
09 (random-label refits, several minutes); everything else finishes in
seconds.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from equibound.bounds import BoundInputs, compute_report, xi
from equibound.cli import SweepConfig, _admissible_sigma, run_sweep
from equibound.datasets import (
    generate_synthetic,
    input_rep_for,
    randomize_labels,
    sample,
)
from equibound.equivariant import (
    MarginNotReached,
    TrainConfig,
    build_network,
    channels_for_width,
    empirical_margin_loss,
    train,
)
from equibound.groups import build_group
from equibound.irreps import (
    irrep_by_id,
    irreps_of,
    regular_matrices,
    regular_representation,
    restricted_frequency_rep,
)
from equibound.verify import (
    character_type_oracle,
    check_equivariance,
    convolution_theorem_check,
    fourier_roundtrip,
    intertwiner_identity_check,
    mc_perturbation_check,
    mc_tail_check,
    rep_invariants_check,
)

ALL_GROUPS = (
    [("cyclic", n) for n in range(1, 17)]
    + [("dihedral", n) for n in range(1, 9)]
    + [("quaternion", 8)]
)


def _emit(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")


# ------------------------------------------------------ 01 exact identities


def test_01_exact_algebraic_identities():
    t0 = time.perf_counter()
    n_irreps = 0
    seen_types = set()
    ok = True
    for kind, N in ALL_GROUPS:
        G = build_group(kind, N)
        total = 0
        for psi in irreps_of(G):
            n_irreps += 1
            seen_types.add(psi.type_c)
            ok = ok and psi.dim**2 % psi.type_c == 0
            total += psi.dim**2 // psi.type_c
            ok = ok and character_type_oracle(psi, G) == psi.type_c
        ok = ok and total == G.order
    ok = ok and seen_types == {1, 2, 4}
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _emit(1, "exact algebraic identities", ok,
          f"{len(ALL_GROUPS)} groups, {n_irreps} irreps, {elapsed:.3f}s")
    assert ok


# ------------------------------------------------- 02 representation checks


def _geometric_action(G, f: int, reflected: bool) -> np.ndarray:
    """The rotation (and mirror) matrices defining the circle action.

    Built from trigonometry alone so the check is independent of the
    representation code under test.  Dihedral element N + k is the
    x-axis mirror composed with rotation k, matching the element order.
    """
    dim = 4 if reflected else 2
    mats = np.zeros((G.order, dim, dim))
    for k in range(G.N):
        t = 2 * np.pi * f * k / G.N
        R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        if reflected:
            mats[k, :2, :2] = R
            mats[k, 2:, 2:] = R
        else:
            mats[k] = R
    if G.kind == "dihedral":
        C = np.diag([1.0, -1.0])
        if reflected:
            S = np.zeros((4, 4))
            S[:2, 2:] = C
            S[2:, :2] = C
        else:
            S = C
        for k in range(G.N):
            mats[G.N + k] = S @ mats[k]
    return mats


def test_02_representation_invariants():
    t0 = time.perf_counter()
    worst = 0.0
    n_checks = 0
    for kind, N in ALL_GROUPS:
        G = build_group(kind, N)
        result = rep_invariants_check(
            regular_representation(G), regular_matrices(G), tol=1e-10
        )
        worst = max(worst, result.max_violation)
        n_checks += 1
    for kind, Ns in (("cyclic", range(1, 17)), ("dihedral", range(1, 9))):
        for N in Ns:
            G = build_group(kind, N)
            for reflected in (False, True):
                for f in range(N + 1):
                    rep = restricted_frequency_rep(G, f, reflected)
                    rho = _geometric_action(G, f, reflected)
                    result = rep_invariants_check(rep, rho, tol=1e-10)
                    worst = max(worst, result.max_violation)
                    n_checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _emit(2, "representation invariants", ok,
          f"{n_checks} reps, worst {worst:.2e}, {elapsed:.2f}s")
    assert ok


# ------------------------------------------------ 03 intertwiner spectra


def test_03_intertwiner_spectral_identity():
    cases = (("dihedral", 4, "freq:1", 1), ("cyclic", 8, "freq:1", 2),
             ("quaternion", 8, "quat", 4))
    worst = 0.0
    ok = True
    for seed, (kind, N, pid, type_c) in enumerate(cases):
        G = build_group(kind, N)
        psi = irrep_by_id(G, pid)
        ok = ok and psi.type_c == type_c
        result = intertwiner_identity_check(G, psi, trials=100, seed=seed)
        ok = ok and result.passed and result.threshold <= 1e-8
        worst = max(worst, result.max_violation)
    _emit(3, "intertwiner spectral identity", ok,
          f"100 blocks per type, worst rel err {worst:.2e}")
    assert ok


# ----------------------------------------------- 04 Fourier and convolution


def test_04_fourier_and_convolution():
    worst = 0.0
    ok = True
    for seed, (kind, N) in enumerate((("cyclic", 8), ("dihedral", 6))):
        G = build_group(kind, N)
        for check in (fourier_roundtrip(G, trials=100, seed=seed),
                      convolution_theorem_check(G, trials=100, seed=seed)):
            ok = ok and check.passed and check.threshold <= 1e-10
            worst = max(worst, check.max_violation)
    _emit(4, "Fourier roundtrip and convolution theorem", ok,
          f"C_8 and D_6, 100 trials each, worst {worst:.2e}")
    assert ok


# --------------------------------------------------------- 05 equivariance


def _built_and_trained_net(kind: str, N: int, seed: int):
    G = build_group(kind, N)
    if kind == "quaternion":
        inp = regular_representation(G)
    else:
        inp = restricted_frequency_rep(G, 1, kind == "dihedral")
    net = build_network(G, inp, [3, 2], 2, seed=seed)
    rng = np.random.default_rng(seed + 100)
    X = rng.standard_normal((64, net.input_rep.dim))
    y = rng.integers(0, 2, 64)
    try:
        train(net, X, y, TrainConfig(gamma=0.1, max_epochs=40,
                                     learning_rate=0.02, batch_size=16,
                                     seed=seed))
    except MarginNotReached:
        pass  # equivariance must hold regardless of fit
    return net, X, y


def test_05_equivariance_and_gradients():
    worst_layer = 0.0
    worst_net = 0.0
    worst_grad = 0.0
    for seed, (kind, N) in enumerate((("cyclic", 3), ("dihedral", 4),
                                      ("quaternion", 8))):
        net, X, y = _built_and_trained_net(kind, N, seed)
        for layer in net.layers:
            worst_layer = max(
                worst_layer, check_equivariance(layer, 1e-10).max_violation
            )
        worst_net = max(
            worst_net, check_equivariance(net, 1e-8, seed=seed).max_violation
        )
        _, grads = net.loss_and_grads(X[:8], y[:8])
        step = 1e-5
        for l, layer in enumerate(net.layers):
            for pid, co in layer.coefficients.items():
                flat = co.reshape(-1)
                for idx in range(0, flat.size, max(1, flat.size // 4)):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    layer.mark_dirty()
                    lp, _ = net.loss_and_grads(X[:8], y[:8])
                    flat[idx] = orig - step
                    layer.mark_dirty()
                    lm, _ = net.loss_and_grads(X[:8], y[:8])
                    flat[idx] = orig
                    layer.mark_dirty()
                    fd = (lp - lm) / (2 * step)
                    an = grads[l][pid].reshape(-1)[idx]
                    rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
                    worst_grad = max(worst_grad, rel)
    ok = worst_layer <= 1e-10 and worst_net <= 1e-8 and worst_grad <= 1e-4
    _emit(5, "equivariance of trained nets and gradients", ok,
          f"layer {worst_layer:.2e}, net {worst_net:.2e}, grad {worst_grad:.2e}")
    assert ok


# ------------------------------------------------- 06 perturbation bound MC


def test_06_perturbation_inequality_monte_carlo():
    t0 = time.perf_counter()
    spec = generate_synthetic("so2", 4, max_frequency=2, seed=2)
    train_set = sample(spec, 256, "none", seed=5)
    G = build_group("cyclic", 4)
    net = build_network(G, input_rep_for(spec, G), [8, 4], 2, seed=0)
    train(net, train_set.X, train_set.y,
          TrainConfig(gamma=1.0, max_epochs=1500, learning_rate=0.02,
                      batch_size=64, seed=0))
    rng = np.random.default_rng(99)
    X = rng.standard_normal((100, net.input_rep.dim))
    X *= 2.0 / np.linalg.norm(X, axis=1, keepdims=True)
    result = mc_perturbation_check(
        net, _admissible_sigma(net), trials=1000, X=X, B=2.0, seed=7
    )
    elapsed = time.perf_counter() - t0
    ok = result.passed and result.trials == 1000 and elapsed < 300.0
    _emit(6, "perturbation inequality Monte Carlo", ok,
          f"1000 draws x 100 inputs on a trained 3-layer net, "
          f"worst violation {result.max_violation:.2e}, {elapsed:.0f}s")
    assert ok


# -------------------------------------------------------- 07 tail bound MC


def test_07_spectral_tail_monte_carlo():
    t0 = time.perf_counter()
    worst = -math.inf
    ok = True
    for seed, (kind, N) in enumerate((("cyclic", 4), ("cyclic", 16),
                                      ("dihedral", 6), ("quaternion", 8))):
        G = build_group(kind, N)
        reg = regular_representation(G)
        result = mc_tail_check(reg, reg, sigma=1.0, trials=10_000, seed=seed)
        ok = ok and result.passed
        worst = max(worst, result.max_violation)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _emit(7, "spectral tail bound Monte Carlo", ok,
          f"1e4 draws, t in (0.5,1,2,3), C_4/C_16/D_6/Q8, "
          f"worst excess {worst:.2e}, {elapsed:.0f}s")
    assert ok


# ------------------------------------------------------------ 08 group sweep


def _relative_spread(values: list[float]) -> float:
    return (max(values) - min(values)) / float(np.mean(values))


@pytest.mark.slow
def test_08_group_size_sweep(tmp_path):
    t0 = time.perf_counter()
    cfg = SweepConfig(
        symmetry="so2",
        sizes=[6, 1],
        d=6,
        groups=[("cyclic", n) for n in (1, 2, 4, 8, 16)],
        m_grid=[3200],
        seeds=[0, 1, 2],
        gamma=10.0,
        widths=[512, 128],
        learning_rate=0.01,
        max_epochs=800,
        batch_size=256,
        out_dir=str(tmp_path / "sweep"),
    )
    summary = run_sweep(cfg)["summary"]
    rich = summary["symmetry=so2,size=6,m=3200"]
    flat = summary["symmetry=so2,size=1,m=3200"]
    order = [f"cyclic:{n}" for n in (1, 2, 4, 8, 16)]

    rho_a = rich["spearman_ge_vs_inv_sqrt_order"]
    rho_b_rich = rich["spearman_bound_main_vs_ge"]
    rho_b_flat = flat["spearman_bound_main_vs_ge"]
    spreads = {}
    for tag, cell in (("rich", rich), ("flat", flat)):
        main = [cell["per_group"][g]["bound_main"] for g in order]
        alt = [cell["per_group"][g]["bound_alt"] for g in order]
        spreads[tag] = (_relative_spread(alt), _relative_spread(main))
    flat_main = [flat["per_group"][g]["bound_main"] for g in order]
    drop_first = flat_main[0] - flat_main[1]  # C_1 -> C_2
    drop_last = flat_main[3] - flat_main[4]  # C_8 -> C_16
    elapsed = time.perf_counter() - t0

    ok_a = rho_a >= 0.9
    ok_b = rho_b_rich >= 0.8 and rho_b_flat >= 0.8
    ok_c = all(alt <= 0.5 * main for alt, main in spreads.values())
    ok_d = drop_last <= 0.25 * drop_first
    ok = ok_a and ok_b and ok_c and ok_d and elapsed < 1800.0
    _emit(8, "group-size sweep reproduces scaling claims", ok,
          f"a: rho(GE,1/sqrt|H|)={rho_a:.3f}; "
          f"b: rho(bound,GE)={rho_b_rich:.3f}/{rho_b_flat:.3f}; "
          f"c: alt-vs-main spread {spreads['rich'][0]:.2f}/{spreads['rich'][1]:.2f} "
          f"and {spreads['flat'][0]:.2f}/{spreads['flat'][1]:.2f}; "
          f"d: saturation {drop_last:.4f} <= 0.25*{drop_first:.4f}; {elapsed:.0f}s")
    assert ok_a and ok_b and ok_c and ok_d
    assert elapsed < 1800.0


# --------------------------------------------------- 09 random-label bounds

# Per-group optimizer settings that reach the margin on both label sets;
# random labels need two orders of magnitude more epochs than true ones.
# Group-augmented sampling matters here: it breaks the logit ties that
# otherwise trap a few samples at margin exactly zero.
C9_GAMMA = 0.5
C9_RUNS = (
    (4, (512, 128), 128, 0.01, 4000),
    (8, (1024, 256), 128, 0.01, 8000),
)


def _c9_bound(net, samples, gamma: float) -> float:
    loss = empirical_margin_loss(net, samples.X, samples.y, gamma)
    report = compute_report(BoundInputs(net=net, m=len(samples), gamma=gamma,
                                        B=samples.B, train_margin_loss=loss))
    return report.bound_main


@pytest.mark.slow
def test_09_random_label_bound_exceeds_true():
    spec = generate_synthetic("so2", 6, max_frequency=3, seed=0)
    true_set = sample(spec, 1024, "group", seed=1)
    rand_set = randomize_labels(true_set, seed=7)
    details = []
    ok = True
    for N, widths, batch, lr, epochs in C9_RUNS:
        G = build_group("cyclic", N)
        rep = input_rep_for(spec, G)
        channels = [channels_for_width(G, w) for w in widths]
        bounds = {}
        for tag, samples in (("true", true_set), ("rand", rand_set)):
            net = build_network(G, rep, channels, 2, seed=0)
            train(net, samples.X, samples.y,
                  TrainConfig(gamma=C9_GAMMA, max_epochs=epochs,
                              learning_rate=lr, batch_size=batch, seed=0))
            bounds[tag] = _c9_bound(net, samples, C9_GAMMA)
        ok = ok and bounds["rand"] > bounds["true"]
        details.append(f"C_{N}: rand {bounds['rand']:.2e} > true {bounds['true']:.2e}")
    _emit(9, "random-label bound strictly larger", ok, "; ".join(details))
    assert ok


# ------------------------------------------------------------ 10 xi oracle


def _xi_direct_float(m: int) -> float:
    return sum(
        math.comb(m, k) * (k / m) ** k * ((m - k) / m) ** (m - k)
        for k in range(m + 1)
    )


def _xi_exact(m: int) -> Fraction:
    total = Fraction(0)
    for k in range(m + 1):
        total += (
            Fraction(math.comb(m, k))
            * Fraction(k, m) ** k
            * Fraction(m - k, m) ** (m - k)
        )
    return total


def test_10_xi_oracle_equivalence():
    # Below m=31, xi must land within 4 ulp of the exact rational value,
    # and the direct float summation (the oracle above m=30) within 64.
    worst_ulp = 0.0
    oracle_ulp = 0.0
    for m in range(1, 31):
        exact = float(_xi_exact(m))
        worst_ulp = max(worst_ulp, abs(xi(m) - exact) / np.spacing(exact))
        oracle_ulp = max(oracle_ulp, abs(_xi_direct_float(m) - exact) / np.spacing(exact))
    worst_rel = 0.0
    for m in range(31, 1001):
        direct = _xi_direct_float(m)
        worst_rel = max(worst_rel, abs(xi(m) - direct) / direct)
    ok = (worst_ulp <= 4.0 and oracle_ulp <= 64.0 and worst_rel <= 1e-10
          and xi(1) == 2.0 and xi(2) == 2.5)
    _emit(10, "xi matches direct summation", ok,
          f"m<=30 within {worst_ulp:.0f} ulp of exact (direct sum {oracle_ulp:.0f}), "
          f"m<=1000 rel err {worst_rel:.2e}, xi(1)={xi(1)}, xi(2)={xi(2)}")
    assert ok


# ------------------------------------------------------- 11 reproducibility


def test_11_sweep_reproducibility(tmp_path):
    def run(tag: str):
        cfg = SweepConfig(
            symmetry="so2",
            sizes=[2],
            d=2,
            groups=[("cyclic", 2), ("cyclic", 4)],
            m_grid=[96],
            seeds=[0],
            gamma=1.0,
            widths=[16, 8],
            test_m=200,
            learning_rate=0.02,
            max_epochs=300,
            batch_size=32,
            out_dir=str(tmp_path / tag),
        )
        return run_sweep(cfg)["csv_path"]

    first = open(run("a"), "rb").read()
    second = open(run("b"), "rb").read()
    ok = first == second and len(first) > 0
    _emit(11, "identical sweep runs give identical CSV bytes", ok,
          f"{len(first)} bytes each")
    assert ok
