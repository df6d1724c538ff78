"""Norm computations and PAC-Bayesian generalization bounds.

Implements the margin-based bound for equivariant networks, its
specialization to group-convolutional architectures, and a coarser
norm-based bound whose only group dependence is an explicit 1/sqrt|H|
prefactor, together with the supporting quantities: per-layer spectral
and Fourier norms, the multiplicity factor M(l, eta), the combinatorial
factor xi(m) = 1 + Q(m) (Ramanujan's Q; xi(m) ~ sqrt(pi m / 2) + 2/3),
spectral tail thresholds for random equivariant matrices, and the
perturbation inequality right-hand side.  `BoundInputs` caches
each per-layer factor (norms and Fourier sums, read in one pass by
`layer_norms`, and multiplicity factors) once for every report that
reads it.

A layer's spectral norm is read from its Fourier coefficients: each
shared irrep's superblock has the singular values of a small reduced
matrix (the real coefficient matrix, a complex one, or the complex
adjoint of a quaternion matrix), so the report never expands a
superblock or the dense W.

Two textual variants of the main bound exist; the canonical mode uses
the product of squared spectral norms and a margin-free confidence
term, while the as-written mode reproduces the alternative reading
(identical leading factor, confidence term divided by gamma^2).  Both
are always computed and reported side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache, cached_property

import numpy as np

from .equivariant import EquivariantLayer, EquivariantNetwork
from .irreps import SharedIrrep, irreps_of, shared_irreps

__all__ = [
    "BoundInputs",
    "BoundReport",
    "TailBounds",
    "alternative_bound",
    "compute_report",
    "csv_header",
    "groupconv_bound",
    "layer_norms",
    "m_factor",
    "main_bound",
    "perturbation_rhs",
    "report_to_csv_row",
    "report_to_json",
    "spectral_norm",
    "tail_threshold",
    "xi",
]


# Power iteration stops once the residual |W^H W v - rho v| of the unit
# iterate v is at most this times rho = |W v|^2.  The residual bounds the
# distance from rho to an eigenvalue of W^H W, and near the top one the
# error in rho is of order residual^2 / spectral gap, far below this.
POWER_ITERATION_TOL = 1e-6


def spectral_norm(W: np.ndarray) -> float:
    """Largest singular value of a real or complex matrix, deterministic.

    When the short side is at most 64 it is the square root of the
    largest eigenvalue of the short-side Gram matrix (W W^H or W^H W),
    taken by `eigvalsh`: exact to rounding, and several times faster
    than an SVD.  Larger matrices use power iteration on W^H W from a
    seeded start, stopped by its residual; if that takes more than
    10000 steps (a tiny gap between the top two singular values), the
    Gram route gives the value instead.
    """
    W = np.asarray(W)
    W = W.astype(np.complex128 if np.iscomplexobj(W) else np.float64, copy=False)
    if not np.all(np.isfinite(W)):
        raise ValueError("matrix has non-finite entries")
    Wh = W.conj().T
    if min(W.shape) > 64:
        rng = np.random.default_rng(0)
        v = rng.standard_normal(W.shape[1])
        v /= np.linalg.norm(v)
        for _ in range(10000):
            w = W @ v
            rho = float(np.vdot(w, w).real)
            g = Wh @ w
            if np.linalg.norm(g - rho * v) <= POWER_ITERATION_TOL * rho:
                return math.sqrt(rho)
            v = g / np.linalg.norm(g)
    gram = W @ Wh if W.shape[0] <= W.shape[1] else Wh @ W
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def _irrep_complexity(b: SharedIrrep) -> float:
    """5 * m_in,psi * m_out,psi * c_psi of one shared irrep psi of a layer."""
    return 5.0 * b.m_in * b.m_out * b.psi.type_c


def m_factor(net: EquivariantNetwork, l: int, eta: float) -> float:
    """Multiplicity factor M(l, eta) for layer l (1-based).

    M = log(total multiplicity of all layer outputs / (1 - eta)) times
    the largest 5 * m_in,psi * m_out,psi * c_psi over the layer's shared
    irreps, c_psi being the size of psi's intertwiner basis.
    """
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    if not 1 <= l <= net.depth:
        raise ValueError(f"layer index {l} out of range")
    total = sum(mult for rep in net.reps[1:] for _, mult in rep.blocks)
    worst = max(map(_irrep_complexity, net.layers[l - 1].shared), default=0.0)
    return math.log(total / (1.0 - eta)) * worst


@cache
def xi(m: int) -> float:
    """The binomial factor sum_k C(m,k)(k/m)^k(1-k/m)^(m-k), 0^0 = 1.

    The sum equals 1 + Q(m), Ramanujan's Q(m) = sum_{j=1..m} prod_{i<j}
    (1 - i/m) (Knuth, TAOCP 1, 1.2.11.3), a sum of m terms in [0, 1], so
    xi(m) <= m + 1 and it grows like sqrt(pi m / 2) + 2/3.  Values are
    cached per m: a sweep bounds many networks trained on the same number
    of samples.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return float(1.0 + np.cumprod(1.0 - np.arange(m) / m).sum())


def _reduced_matrix(b: SharedIrrep, coef: np.ndarray) -> np.ndarray:
    """The smallest matrix whose singular values are those of b's superblock.

    `coef` is the (m_out, m_in, c) coefficient array.  The superblock is
    sum_t kron(basis_t, coef_t), so its singular values are, each
    repeated:
    - real type (c = 1, kron(I_d, C)): those of coef[:, :, 0];
    - complex type ([[C0, -C1], [C1, C0]] per pair of components): those
      of C0 + i C1;
    - quaternionic type: those of the complex adjoint
      [[z, w], [-conj(w), conj(z)]], z = C0 + i C1 and w = C2 + i C3, of
      the quaternion matrix C0 + C1 i + C2 j + C3 k.  The basis matrices
      multiply as i j = k, so t -> (diag(i, -i), [[0, 1], [-1, 0]],
      [[0, i], [i, 0]]) is an algebra map and keeps the singular values.
    """
    c = b.psi.type_c
    if c == 1:
        return coef[:, :, 0]
    z = coef[:, :, 0] + 1j * coef[:, :, 1]
    if c == 2:
        return z
    w = coef[:, :, 2] + 1j * coef[:, :, 3]
    return np.block([[z, w], [-w.conj(), z.conj()]])


def layer_norms(layer: EquivariantLayer) -> tuple[float, float, float]:
    """(|W|_2, |W|_F, S_l) of one layer, read once from its coefficients.

    W = Q_out S Q_in^T with orthogonal Q and S block-diagonal over irreps,
    so |W|_2 is the largest superblock spectral norm, which is that of
    the irrep's reduced matrix (see _reduced_matrix); no superblock is
    expanded.  A superblock is sum_t kron(basis_t, coef_t) with
    Frobenius-orthogonal basis matrices of norm sqrt(dim), so its squared
    Frobenius norm is dim_psi S_psi, S_psi = |coef_psi|^2.  S_l is
    sum_psi S_psi and |W|_F^2 = sum_psi dim_psi S_psi.  Each S_psi is
    einsum's sum of squares per output row, added by numpy's pairwise
    sum: no BLAS call, so it does not depend on the BLAS thread count,
    and no chain of additions is longer than a row.
    """
    spec = fro_sq = s_sum = 0.0
    for b in layer.shared:
        a = layer.coefficients[b.irrep_id]
        spec = max(spec, spectral_norm(_reduced_matrix(b, a)))
        rows = a.reshape(len(a), -1)
        s_psi = float(np.einsum("ij,ij->i", rows, rows).sum())
        s_sum += s_psi
        fro_sq += b.dim * s_psi
    return spec, math.sqrt(fro_sq), s_sum


def _sigma0(
    specs: tuple[float, ...], m_factors: tuple[float, ...], gamma: float, B: float
) -> float:
    """Posterior width sigma0 = gamma / (4 e B beta^(L-1) sum_l sqrt(M_l)).

    beta is the geometric mean of the layer spectral norms, matching a
    notional rescaling that equalizes them without changing the
    network function.
    """
    L = len(specs)
    beta = float(np.prod(specs)) ** (1.0 / L)
    sum_sqrt_m = sum(math.sqrt(v) for v in m_factors)
    return gamma / (4.0 * math.e * B * beta ** (L - 1) * sum_sqrt_m)


def perturbation_rhs(w_norms: list[float], u_norms: list[float], B: float) -> float:
    """Right side of the output-perturbation inequality.

    `w_norms` and `u_norms` are the spectral norms |W_l| of the layers and
    |U_l| of their perturbations.  Requires the admissibility condition
    |U_l| <= |W_l| / L for every layer; outside it the inequality is not
    claimed and this raises.  Returns e * B * prod_l |W_l| * sum_l |U_l| / |W_l|.
    """
    if len(u_norms) != len(w_norms):
        raise ValueError("need one perturbation per layer")
    L = len(w_norms)
    for u, w in zip(u_norms, w_norms):
        if u > w / L:
            raise ValueError(
                f"perturbation norm {u:.3e} exceeds admissible {w / L:.3e}"
            )
    ratio = sum(u / w for u, w in zip(u_norms, w_norms))
    return math.e * B * float(np.prod(w_norms)) * ratio


@dataclass(frozen=True)
class TailBounds:
    """Spectral tail for a random equivariant layer at one t."""

    threshold: float
    tight_threshold: float
    probability_bound: float


def tail_threshold(in_rep, out_rep, sigma: float, t: float) -> TailBounds:
    """Spectral-norm tail for Gaussian Fourier coefficients of width sigma.

    threshold is the simplified form sigma * sqrt(max_psi 5 m m' c t);
    tight_threshold keeps the pre-simplification chi-square terms; the
    exceedance probability bound is (sum of output multiplicities on
    shared irreps) * exp(-t) and may exceed 1 (vacuous).
    """
    if sigma <= 0 or t <= 0:
        raise ValueError("sigma and t must be positive")
    worst = 0.0
    worst_tight = 0.0
    mult_total = 0
    for b in shared_irreps(in_rep, out_rep):
        m_in, m_out, c = b.m_in, b.m_out, b.psi.type_c
        worst = max(worst, _irrep_complexity(b) * t)
        worst_tight = max(
            worst_tight,
            m_in * (m_out * c + 2.0 * m_out * c * math.sqrt(t) + 2.0 * t),
        )
        mult_total += m_out
    return TailBounds(
        threshold=sigma * math.sqrt(worst),
        tight_threshold=sigma * math.sqrt(worst_tight),
        probability_bound=mult_total * math.exp(-t),
    )


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bounds need about one trained model and dataset."""

    net: EquivariantNetwork
    m: int
    gamma: float
    B: float
    train_margin_loss: float
    delta: float = 0.05
    eta: float = 0.5
    train_err: float = float("nan")
    test_err: float = float("nan")

    @cached_property
    def norms(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """Per-layer spectral norms, Frobenius norms and S_l of `net`
        (see layer_norms), taken on first use.

        Build new inputs after changing the network's coefficients.
        """
        specs, fros, s_sums = zip(*map(layer_norms, self.net.layers))
        if 0.0 in specs:
            raise ValueError("a layer has zero spectral norm")
        return specs, fros, s_sums

    @cached_property
    def m_factors(self) -> tuple[float, ...]:
        """Per-layer M(l, eta) of `net` (see m_factor), taken on first use."""
        return tuple(m_factor(self.net, l, self.eta) for l in range(1, self.net.depth + 1))

    def __post_init__(self) -> None:
        self.check_settings(self.m, self.gamma, self.eta, self.delta)
        _check_square("B", self.B)

    @staticmethod
    def check_settings(m: int, gamma: float, eta: float, delta: float) -> None:
        """Refuse an m, gamma, eta or delta that the bound cannot take.

        A sweep calls it on its whole grid before any cell trains.
        """
        if m < 1:
            raise ValueError("m must be >= 1")
        _check_square("gamma", gamma)
        if not 0 < eta < 1:
            raise ValueError("eta must lie in (0, 1)")
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")


def _check_square(name: str, v: float) -> None:
    # The bound squares gamma and B: a square that underflows to 0 or
    # overflows would divide by zero, raise OverflowError or give a
    # meaningless bound.
    if not (v > 0 and 0.0 < v * v < math.inf):
        raise ValueError(
            f"{name} must be finite and positive with a finite nonzero square, got {v}"
        )


@dataclass(frozen=True)
class BoundReport:
    """One row of results: data facts, per-layer norms, and all bounds.

    The field order is the column order of the CSV row and the JSON
    report.  A field named in the output other than by its attribute
    carries its name as `column` metadata; a per-layer tuple carries the
    CSV prefix of its columns `<prefix>_1 .. <prefix>_L` as `per_layer`.
    """

    group_kind: str
    N: int
    order: int = field(metadata={"column": "H_order"})
    m: int
    gamma: float
    eta: float
    delta: float
    B: float
    train_err: float
    train_margin_loss: float
    test_err: float
    generalization_error: float = field(metadata={"column": "GE"})
    spectral_norms: tuple[float, ...] = field(metadata={"per_layer": "spec"})
    frobenius_norms: tuple[float, ...] = field(metadata={"per_layer": "fro"})
    fourier_frobenius_sums: tuple[float, ...] = field(metadata={"per_layer": "S"})
    m_factors: tuple[float, ...] = field(metadata={"per_layer": "M"})
    xi_m: float
    sigma0: float
    kl: float
    bound_main: float
    bound_main_as_written: float
    bound_groupconv: float
    bound_alt: float
    D_H: float
    E_H: float
    Q_H: float


def _confidence_terms(inputs: BoundInputs, L: int) -> tuple[float, float, float]:
    """xi(m) and the canonical / as-written confidence terms."""
    xi_m = xi(inputs.m)
    m = inputs.m
    log_arg = math.log(xi_m * L * m ** (1.0 + 1.0 / (2.0 * L)) / inputs.delta)
    return xi_m, log_arg / (2.0 * m), log_arg / (2.0 * inputs.gamma**2 * m)


def _lead(inputs: BoundInputs, eta: float, complexity: float) -> float:
    """The main and group-conv bounds' lead term, in this order of operations:
    32 e^4 B^2 prod_l spec_l^2 / (gamma^2 m eta) * complexity * sum_l S_l / spec_l^2."""
    specs, _, s_sums = inputs.norms
    prod_spec_sq = float(np.prod([s * s for s in specs]))
    sum_ratio = sum(s / (w * w) for s, w in zip(s_sums, specs))
    return (
        32.0
        * math.e**4
        * inputs.B**2
        * prod_spec_sq
        / (inputs.gamma**2 * inputs.m * eta)
        * complexity
        * sum_ratio
    )


def main_bound(inputs: BoundInputs) -> dict[str, float]:
    """Margin bound from the layerwise multiplicity factors.

    Its complexity is (sum_l sqrt(M_l))^2.  Returns the report fields it
    computes: xi_m, sigma0, the KL term sum_l S_l / (2 sigma0^2) as kl,
    and both readings of the bound (see compute_report).
    """
    specs, _, s_sums = inputs.norms
    m_facs = inputs.m_factors
    lead = _lead(inputs, inputs.eta, sum(math.sqrt(v) for v in m_facs) ** 2)
    xi_m, conf, conf_literal = _confidence_terms(inputs, inputs.net.depth)
    sigma0 = _sigma0(specs, m_facs, inputs.gamma, inputs.B)
    return {
        "xi_m": xi_m,
        "sigma0": sigma0,
        "kl": sum(s_sums) / (2.0 * sigma0**2),
        "bound_main": inputs.train_margin_loss + math.sqrt(lead + conf),
        "bound_main_as_written": inputs.train_margin_loss + math.sqrt(lead + conf_literal),
    }


def _channel_counts(net: EquivariantNetwork) -> list[int]:
    """Per-rep channel counts c_0..c_L of a group-convolutional net.

    Each rep counts the fewest regular channels that hold its densest
    irrep, max(1, ceil(max_psi m_psi c_psi / dim_psi)); hidden reps must
    be exactly that many regular channels.
    """
    irreps = irreps_of(net.group)
    counts = []
    for l, rep in enumerate(net.reps):
        mults = dict(rep.blocks)
        c = max(
            1, max(math.ceil(mults.get(psi.id, 0) * psi.type_c / psi.dim) for psi in irreps)
        )
        if 0 < l < net.depth and any(
            mults.get(psi.id, 0) * psi.type_c != c * psi.dim for psi in irreps
        ):
            raise ValueError("hidden layers must be stacks of the regular representation")
        counts.append(c)
    return counts


def groupconv_bound(inputs: BoundInputs) -> dict[str, float]:
    """Specialize the main bound to group-convolutional architectures.

    The multiplicity factors collapse into the group constants
    D_H = max_psi dim^2/c and E_H = sum_psi dim/c, with eta fixed at
    1/2, and each rep is counted as its regular-stack cover (see
    _channel_counts).  So at eta = 1/2 the two bounds are equal when
    every rep, the input and the logits included, is a regular stack;
    among build_network's nets that holds only over C1.  Elsewhere the
    cover holds more multiplicity than the rep, and
    bound_groupconv >= bound_main.  Q_H is the architecture-independent
    complexity factor reported for reference.  Returns the report fields
    bound_groupconv, D_H, E_H and Q_H.
    """
    net = inputs.net
    L = net.depth
    counts = _channel_counts(net)
    irreps = irreps_of(net.group)
    D_H = max(psi.dim**2 / psi.type_c for psi in irreps)
    E_H = sum(psi.dim / psi.type_c for psi in irreps)
    sum_c_out = sum(counts[1:])
    sqrt_cc = sum(math.sqrt(counts[l - 1] * counts[l]) for l in range(1, L + 1))
    complexity = 5.0 * D_H * math.log(2.0 * E_H * sum_c_out) * sqrt_cc**2
    lead = _lead(inputs, 0.5, complexity)
    _, conf, _ = _confidence_terms(inputs, L)
    Q_H = sqrt_cc**2 * D_H * math.log(2.0 * E_H * sum(counts[:-1]))
    return {
        "bound_groupconv": inputs.train_margin_loss + math.sqrt(lead + conf),
        "D_H": D_H,
        "E_H": E_H,
        "Q_H": Q_H,
    }


def alternative_bound(inputs: BoundInputs) -> float:
    """Norm-only bound whose group dependence is a 1/sqrt|H| prefactor.

    Order-level (constants dropped); uses the widest feature dimension
    h and the largest irrep dimension of H.
    """
    net = inputs.net
    specs, fros, _ = inputs.norms
    L = net.depth
    h = max(rep.dim for rep in net.reps)
    max_dim = max(psi.dim for psi in irreps_of(net.group))
    prod_spec_sq = float(np.prod([s * s for s in specs]))
    sum_ratio = sum((f * f) / (w * w) for f, w in zip(fros, specs))
    inner = (
        max_dim
        * L**2
        * h
        * math.log(2.0 * L * h)
        * prod_spec_sq
        * sum_ratio
        / (inputs.gamma**2 * inputs.m)
    )
    return math.sqrt(inner / net.group.order)


def compute_report(inputs: BoundInputs) -> BoundReport:
    """All three bounds plus intermediates in one report.

    The only builder of a BoundReport: each bound function returns the
    fields it computes, by name, so every field is set exactly once.
    """
    net = inputs.net
    specs, fros, s_sums = inputs.norms
    return BoundReport(
        group_kind=net.group.kind,
        N=net.group.N,
        order=net.group.order,
        m=inputs.m,
        gamma=inputs.gamma,
        eta=inputs.eta,
        delta=inputs.delta,
        B=inputs.B,
        train_err=inputs.train_err,
        train_margin_loss=inputs.train_margin_loss,
        test_err=inputs.test_err,
        generalization_error=inputs.test_err - inputs.train_err,
        spectral_norms=specs,
        frobenius_norms=fros,
        fourier_frobenius_sums=s_sums,
        m_factors=inputs.m_factors,
        **main_bound(inputs),
        **groupconv_bound(inputs),
        bound_alt=alternative_bound(inputs),
    )


def csv_header(depth: int) -> list[str]:
    """Column names for a report with `depth` layers."""
    cols = []
    for f in fields(BoundReport):
        prefix = f.metadata.get("per_layer")
        if prefix is None:
            cols.append(f.metadata.get("column", f.name))
        else:
            cols.extend(f"{prefix}_{l}" for l in range(1, depth + 1))
    return cols


def report_to_csv_row(report: BoundReport) -> list[str]:
    """Stringify one report in csv_header order.

    `str` and `int` fields print with str, every other value with
    repr(float(v)), which round-trips exactly (an int gamma prints 10.0).
    """
    values = []
    for f in fields(BoundReport):
        v = getattr(report, f.name)
        if "per_layer" in f.metadata:
            values.extend(repr(float(x)) for x in v)
        elif f.type in ("str", "int"):  # annotations are strings (PEP 563)
            values.append(str(v))
        else:
            values.append(repr(float(v)))
    return values


def report_to_json(report: BoundReport) -> dict:
    """Report as a JSON-ready dict; per-layer tuples become lists."""
    data = {}
    for f in fields(BoundReport):
        v = getattr(report, f.name)
        data[f.metadata.get("column", f.name)] = list(v) if "per_layer" in f.metadata else v
    return data
