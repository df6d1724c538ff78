"""Independent oracles and Monte-Carlo checkers.

Every checker returns a CheckResult carrying the worst observed
violation and the threshold it was compared against, so regressions
show up as growing violations rather than bare booleans.  Checks are
deterministic given their seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import layer_norms, perturbation_rhs, spectral_norm, tail_threshold
from .equivariant import EquivariantLayer, EquivariantNetwork
from .groups import FiniteGroup
from .irreps import (
    Irrep,
    fourier_transform,
    fourier_transform_full,
    group_circulant,
    intertwiner_basis,
    inverse_fourier,
    irreps_of,
    regular_matrices,
    rep_violation,
    shared_irreps,
)

__all__ = [
    "CheckResult",
    "character_type_oracle",
    "check_equivariance",
    "chi_square_mc_check",
    "chi_square_threshold",
    "convolution_theorem_check",
    "dense_spectral_oracle",
    "format_check_result",
    "fourier_roundtrip",
    "intertwiner_identity_check",
    "mc_perturbation_check",
    "mc_tail_check",
    "rep_invariants_check",
]


@dataclass
class CheckResult:
    """Outcome of one check: worst violation vs threshold; no trials, no pass."""

    name: str
    max_violation: float
    trials: int
    threshold: float
    passed: bool = field(init=False)
    details: dict | None = None

    def __post_init__(self) -> None:
        self.passed = self.trials >= 1 and self.max_violation <= self.threshold


def format_check_result(r: CheckResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return (
        f"{r.name}: trials={r.trials} max_violation={r.max_violation:.3e} "
        f"threshold={r.threshold:.3e} {status}"
    )


def dense_spectral_oracle(W: np.ndarray) -> float:
    """Largest singular value by full decomposition (reference path)."""
    W = np.asarray(W, dtype=np.float64)
    if max(W.shape) > 2048:
        raise ValueError("oracle capped at 2048 x 2048")
    return float(np.linalg.svd(W, compute_uv=False)[0])


def character_type_oracle(psi: Irrep, G: FiniteGroup) -> int:
    """Recover the Frobenius-Schur type from the character alone.

    (1/|G|) sum_g (tr psi(g))^2 equals 1, 2, or 4 for the three types;
    anything farther than 0.01 from those values is rejected.
    """
    val = float(np.mean(psi.characters**2))
    nearest = min((1, 2, 4), key=lambda c: abs(val - c))
    if abs(val - nearest) > 0.01:
        raise ValueError(
            f"character norm {val} of {psi.id} matches no Frobenius-Schur type"
        )
    return nearest


def chi_square_threshold(a: np.ndarray, x: float) -> float:
    """Concentration threshold sum(a) + 2|a|_2 sqrt(x) + 2|a|_inf x.

    P(sum_i a_i X_i^2 >= threshold) <= exp(-x) for i.i.d. standard
    normal X_i and nonnegative weights a.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0 or np.all(a == 0):
        return 0.0
    return float(np.sum(a) + 2.0 * np.linalg.norm(a) * math.sqrt(x) + 2.0 * np.max(a) * x)


def chi_square_mc_check(
    a: np.ndarray, x: float, trials: int, seed: int = 0
) -> CheckResult:
    """Monte-Carlo companion of chi_square_threshold."""
    a = np.asarray(a, dtype=np.float64)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((trials, a.size))
    stats = (draws**2) @ a
    threshold = chi_square_threshold(a, x)
    empirical = float(np.mean(stats >= threshold))
    bound = math.exp(-x)
    return CheckResult(
        name=f"chi-square-tail(x={x})",
        max_violation=empirical - bound,
        trials=trials,
        threshold=0.0,
        details={"empirical": empirical, "bound": bound},
    )


def check_equivariance(obj, tol: float, n_inputs: int = 16, seed: int = 0) -> CheckResult:
    """Commutation check for a layer, or logit invariance for a network.

    For a layer the violation is max_g |W rho_in(g) - rho_out(g) W|
    entrywise; for a network it is the largest logit deviation between
    f(rho_0(g) x) and f(x) over random inputs x and all g.
    """
    if isinstance(obj, EquivariantLayer):
        W = obj.matrix
        worst = 0.0
        for g in range(obj.group.order):
            lhs = W @ obj.in_rep.rho(g)
            rhs = obj.out_rep.rho(g) @ W
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        return CheckResult(
            name="layer-equivariance",
            max_violation=worst,
            trials=obj.group.order,
            threshold=tol,
        )
    if isinstance(obj, EquivariantNetwork):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_inputs, obj.input_rep.dim))
        base = obj.forward(X)
        worst = 0.0
        for g in range(obj.group.order):
            acted = X @ obj.input_rep.rho(g).T
            worst = max(worst, float(np.max(np.abs(obj.forward(acted) - base))))
        return CheckResult(
            name="network-invariance",
            max_violation=worst,
            trials=obj.group.order * n_inputs,
            threshold=tol,
        )
    raise TypeError(f"cannot check equivariance of {type(obj).__name__}")


def rep_invariants_check(rep, rho: np.ndarray, tol: float = 1e-10) -> CheckResult:
    """Q orthogonality plus block diagonalization against explicit rho."""
    return CheckResult(
        name="rep-invariants",
        max_violation=rep_violation(rep, rho),
        trials=rep.group.order,
        threshold=tol,
    )


def intertwiner_identity_check(
    G: FiniteGroup, psi: Irrep, trials: int, seed: int = 0
) -> CheckResult:
    """Spectral identity |W|_2 = |W|_F / sqrt(dim) on random intertwiners."""
    basis = intertwiner_basis(G, psi)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        w = rng.standard_normal(basis.shape[0])
        W = np.einsum("k,kpq->pq", w, basis)
        spec = dense_spectral_oracle(W)
        fro = float(np.linalg.norm(W)) / math.sqrt(psi.dim)
        worst = max(worst, abs(spec - fro) / max(fro, 1e-300))
    return CheckResult(
        name=f"intertwiner-spectral({psi.id})",
        max_violation=worst,
        trials=trials,
        threshold=1e-8,
    )


def fourier_roundtrip(G: FiniteGroup, trials: int, seed: int = 0) -> CheckResult:
    """Roundtrip and translation properties of the group Fourier transform."""
    rng = np.random.default_rng(seed)
    reg = regular_matrices(G)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(G.order)
        coeffs = fourier_transform(G, x)
        back = inverse_fourier(G, coeffs)
        worst = max(worst, float(np.max(np.abs(back - x))))
        for g in range(G.order):
            shifted = fourier_transform(G, reg[g] @ x)
            for psi in irreps_of(G):
                expected = psi.matrices[g] @ coeffs[psi.id]
                worst = max(
                    worst, float(np.max(np.abs(shifted[psi.id] - expected)))
                )
    return CheckResult(
        name="fourier-roundtrip-shift",
        max_violation=worst,
        trials=trials,
        threshold=1e-10,
    )


def convolution_theorem_check(
    G: FiniteGroup, trials: int, seed: int = 0
) -> CheckResult:
    """Group convolution becomes per-irrep matrix products in Fourier space."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        w = rng.standard_normal(G.order)
        x = rng.standard_normal(G.order)
        conv = group_circulant(G, w) @ x
        conv_hat = fourier_transform_full(G, conv)
        x_hat = fourier_transform_full(G, x)
        w_hat = fourier_transform_full(G, w)
        for psi in irreps_of(G):
            expected = x_hat[psi.id] @ w_hat[psi.id].T
            worst = max(worst, float(np.max(np.abs(conv_hat[psi.id] - expected))))
    return CheckResult(
        name="convolution-theorem",
        max_violation=worst,
        trials=trials,
        threshold=1e-10,
    )


def mc_tail_check(
    in_rep,
    out_rep,
    sigma: float,
    trials: int,
    t_grid: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0),
    seed: int = 0,
) -> CheckResult:
    """Empirical spectral-norm exceedance vs the tail bound.

    Draws i.i.d. Gaussian coefficient sets, takes each draw's largest
    per-irrep block singular value (equal to the dense spectral norm by
    orthogonality of the bases), and compares exceedance frequencies at
    both thresholds against the probability bound capped at 1.
    """
    rng = np.random.default_rng(seed)
    norms = np.zeros(trials)
    for b in shared_irreps(in_rep, out_rep):
        coeffs = rng.normal(0.0, sigma, size=(trials, b.m_out, b.m_in, b.psi.type_c))
        blocks = np.einsum("tjik,kpq->tjpiq", coeffs, b.basis).reshape(
            trials, b.m_out * b.dim, b.m_in * b.dim
        )
        svals = np.linalg.svd(blocks, compute_uv=False)[:, 0]
        norms = np.maximum(norms, svals)
    worst = -math.inf
    details = {}
    for t in t_grid:
        tails = tail_threshold(in_rep, out_rep, sigma, t)
        bound = min(1.0, tails.probability_bound)
        for label, thr in (
            ("simplified", tails.threshold),
            ("tight", tails.tight_threshold),
        ):
            empirical = float(np.mean(norms >= thr))
            worst = max(worst, empirical - bound)
            details[f"t={t}:{label}"] = {
                "empirical": empirical,
                "bound": bound,
                "threshold": thr,
            }
    return CheckResult(
        name="tail-bound",
        max_violation=worst,
        trials=trials,
        threshold=0.0,
        details=details,
    )


def mc_perturbation_check(
    net: EquivariantNetwork,
    sigma: float,
    trials: int,
    X: np.ndarray,
    B: float,
    seed: int = 0,
) -> CheckResult:
    """Forward-difference check of the perturbation inequality.

    Collects `trials` admissible draws (|U_l| <= |W_l|/L for every
    layer; inadmissible draws are rejected and counted), comparing both
    the network-output inequality and the per-layer coefficient-norm
    inequality for the perturbation's spectral norm.  Violations below
    1e-9 are double-precision rounding, not failures; the norm identity
    can hold with equality.
    """
    rng = np.random.default_rng(seed)
    X = np.asarray(X, dtype=np.float64)
    L = net.depth
    base = net.forward(X)
    weights = [layer.matrix.copy() for layer in net.layers]
    spec_w = [layer_norms(layer)[0] for layer in net.layers]
    worst = -math.inf
    rejected = 0
    accepted = 0
    attempts = 0
    max_attempts = 50 * trials
    while accepted < trials and attempts < max_attempts:
        attempts += 1
        draws = []
        for layer in net.layers:
            coeffs = {
                pid: rng.normal(0.0, sigma, size=arr.shape)
                for pid, arr in layer.coefficients.items()
            }
            perturbation = EquivariantLayer(layer.in_rep, layer.out_rep)
            perturbation.set_coefficients(coeffs)
            draws.append((coeffs, perturbation.matrix))
        u_norms = [spectral_norm(U) for _, U in draws]
        if any(u > w / L for u, w in zip(u_norms, spec_w)):
            rejected += 1
            continue
        accepted += 1
        rhs = perturbation_rhs(spec_w, u_norms, B)
        A = X
        for l, (W, (_, U)) in enumerate(zip(weights, draws)):
            Z = A @ (W + U).T
            A = Z if l == L - 1 else np.maximum(Z, 0.0)
        lhs = float(np.max(np.linalg.norm(A - base, axis=1)))
        worst = max(worst, lhs - rhs)
        for (coeffs, _), u, layer in zip(draws, u_norms, net.layers):
            cap_sq = 0.0
            for b in layer.shared:
                arr = coeffs[b.irrep_id]
                per_input = b.m_in * np.sum(arr**2, axis=(0, 2))
                cap_sq = max(cap_sq, float(np.max(per_input)))
            worst = max(worst, u - math.sqrt(cap_sq))
    if accepted < trials:
        raise RuntimeError(
            f"only {accepted}/{trials} admissible draws after {attempts} attempts; "
            "sigma is too large"
        )
    return CheckResult(
        name="perturbation-inequality",
        max_violation=worst,
        trials=accepted,
        threshold=1e-9,
        details={"rejected": rejected, "inputs": X.shape[0]},
    )
