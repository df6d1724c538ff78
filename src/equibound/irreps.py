"""Real irreducible representations and group Fourier analysis.

Provides the irrep catalogs of the supported groups, Frobenius-Schur
types, intertwiner bases, the regular representation with its
orthonormal Fourier change of basis, numerical decomposition of
arbitrary orthogonal representations, the group Fourier transform and
its inverse, and group circulant matrices.

A RepSpec describes how a feature space transforms: an ordered list of
(irrep id, multiplicity) blocks plus an orthogonal change of basis Q
such that Q^T rho(g) Q is the corresponding block diagonal for every
group element.  Each irrep occupies one contiguous column range of the
block coordinates, indexed component-major with the copy fastest
(p * multiplicity + copy), so the block diagonal of an irrep psi with
multiplicity M is kron(psi(g), I_M).  Q is stored factored, as
kron(base_Q, I_channels): a stack's represented coordinates are
base-coordinate-major with the channel fastest, and the same rule then
places every irrep of the stack in one column range.  Changing basis is
one batched matmul with base_Q; the dense Q is built only when an
oracle reads it.  The SharedIrrep records of `shared_irreps` are the one
table from which a layer, the bound and its checks read which irreps
two reps share, where, and how often; `rep_violation` is the one
measure of how far a rep breaks the RepSpec invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .groups import FiniteGroup, build_group

__all__ = [
    "Irrep",
    "RepSpec",
    "SharedIrrep",
    "decompose_representation",
    "direct_sum",
    "fourier_transform",
    "fourier_transform_full",
    "frequency_action",
    "group_circulant",
    "intertwiner_basis",
    "inverse_fourier",
    "irrep_by_id",
    "irreps_of",
    "regular_matrices",
    "regular_representation",
    "rep_from_json",
    "rep_to_json",
    "rep_violation",
    "restricted_frequency_rep",
    "shared_irreps",
    "stack_rep",
    "trivial_stack",
]


@dataclass(frozen=True, eq=False)
class Irrep:
    """A real irreducible representation given by per-element matrices.

    `matrices` has shape (order, dim, dim); `type_c` is the
    Frobenius-Schur type: 1 (real), 2 (complex), or 4 (quaternionic).
    """

    id: str
    dim: int
    type_c: int
    matrices: np.ndarray

    @cached_property
    def characters(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)

    def __repr__(self) -> str:
        return f"Irrep(id={self.id!r}, dim={self.dim}, type_c={self.type_c})"


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


_REFLECT_2D = np.array([[1.0, 0.0], [0.0, -1.0]])


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _cyclic_irreps(N: int) -> list[Irrep]:
    a = np.arange(N)
    out = [Irrep("triv", 1, 1, _freeze(np.ones((N, 1, 1))))]
    for k in range(1, (N + 1) // 2):
        mats = np.stack([_rotation(2 * np.pi * k * g / N) for g in a])
        out.append(Irrep(f"freq:{k}", 2, 2, _freeze(mats)))
    if N % 2 == 0:
        mats = ((-1.0) ** a).reshape(N, 1, 1)
        out.append(Irrep("sign", 1, 1, _freeze(mats)))
    return out


def _dihedral_irreps(N: int) -> list[Irrep]:
    n = 2 * N
    a = np.arange(N)
    ones = np.ones(N)
    out = [Irrep("triv", 1, 1, _freeze(np.ones((n, 1, 1))))]
    refl_parity = np.concatenate([ones, -ones]).reshape(n, 1, 1)
    out.append(Irrep("sign", 1, 1, _freeze(refl_parity)))
    if N % 2 == 0:
        alt = (-1.0) ** a
        out.append(Irrep("alt", 1, 1, _freeze(np.concatenate([alt, alt]).reshape(n, 1, 1))))
        out.append(
            Irrep("alt-sign", 1, 1, _freeze(np.concatenate([alt, -alt]).reshape(n, 1, 1)))
        )
    for k in range(1, (N + 1) // 2):
        rots = [_rotation(2 * np.pi * k * g / N) for g in a]
        refls = [_REFLECT_2D @ r for r in rots]
        out.append(Irrep(f"freq:{k}", 2, 1, _freeze(np.stack(rots + refls))))
    return out


def _q8_left_mult(q: tuple) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ],
        dtype=np.float64,
    )


def _quaternion_irreps() -> list[Irrep]:
    from .groups import _Q8_UNITS

    out = [Irrep("triv", 1, 1, _freeze(np.ones((8, 1, 1))))]
    # The three sign characters are +1 on {+-1, +-axis} and -1 elsewhere.
    for name, axis in (("sign:i", 2), ("sign:j", 4), ("sign:k", 6)):
        chars = np.array(
            [1.0 if idx in (0, 1, axis, axis + 1) else -1.0 for idx in range(8)]
        )
        out.append(Irrep(name, 1, 1, _freeze(chars.reshape(8, 1, 1))))
    mats = np.stack([_q8_left_mult(q) for q in _Q8_UNITS])
    out.append(Irrep("quat", 4, 4, _freeze(mats)))
    return out


@lru_cache(maxsize=None)
def _irreps_cached(kind: str, N: int) -> tuple[Irrep, ...]:
    if kind == "cyclic":
        return tuple(_cyclic_irreps(N))
    if kind == "dihedral":
        return tuple(_dihedral_irreps(N))
    return tuple(_quaternion_irreps())


def irreps_of(G: FiniteGroup) -> tuple[Irrep, ...]:
    """Return the complete catalog of real irreps of G, in a fixed order.

    The catalog satisfies sum_psi dim^2 / c = |G| exactly.
    """
    return _irreps_cached(G.kind, G.N)


def irrep_by_id(G: FiniteGroup, irrep_id: str) -> Irrep:
    """Look up an irrep of G by its stable identifier."""
    for psi in irreps_of(G):
        if psi.id == irrep_id:
            return psi
    raise KeyError(f"group {G!r} has no irrep {irrep_id!r}")


_QUAT_PATTERNS = [
    np.eye(4),
    np.array(
        [
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    ),
    np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
        ]
    ),
    np.array(
        [
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    ),
]


@lru_cache(maxsize=None)
def _intertwiner_basis_cached(d: int, c: int) -> np.ndarray:
    """The self-intertwiner basis of any irrep of dimension d and type c."""
    if c == 1:
        basis = np.eye(d)[None]
    elif c == 2:
        half = d // 2
        J = np.zeros((d, d))
        J[:half, half:] = -np.eye(half)
        J[half:, :half] = np.eye(half)
        basis = np.stack([np.eye(d), J])
    else:
        quarter = d // 4
        basis = np.stack([np.kron(p, np.eye(quarter)) for p in _QUAT_PATTERNS])
    return _freeze(basis)


def intertwiner_basis(G: FiniteGroup, psi: Irrep) -> np.ndarray:
    """Return the c orthogonal basis matrices of psi's self-intertwiner space.

    Shape (c, dim, dim).  Real type gives {I}; complex type adds the
    block rotation [[0, -I], [I, 0]]; quaternionic type gives the four
    right-multiplication matrices.  Every element commutes with psi(g)
    for all g, and the matrices are pairwise Frobenius-orthogonal.
    """
    return _intertwiner_basis_cached(psi.dim, psi.type_c)


@dataclass(frozen=True, eq=False)
class RepSpec:
    """An orthogonal representation described by irrep blocks and a basis.

    `blocks` is an ordered tuple of (irrep id, multiplicity).  The basis
    is stored factored: a k x k orthogonal `base_Q` and a channel count,
    so the change of basis is Q = kron(base_Q, I_channels).  Each irrep
    fills one contiguous range of block coordinates, component-major
    with the copy fastest; in a stack, copy q of the base rep in channel
    c is copy q * channels + c.  Q^T rho(g) Q is block diagonal, and the
    represented action is rho(g) = Q (block diagonal) Q^T.
    """

    group: FiniteGroup
    blocks: tuple[tuple[str, int], ...]
    base_Q: np.ndarray
    channels: int = 1

    @cached_property
    def dim(self) -> int:
        return self.channels * self.base_Q.shape[0]

    @cached_property
    def Q(self) -> np.ndarray:
        """The dense dim x dim change of basis, built on first read by an oracle."""
        return _freeze(np.kron(self.base_Q, np.eye(self.channels)))

    @cached_property
    def is_identity(self) -> bool:
        B = self.base_Q
        return bool(np.count_nonzero(B) == len(B) and np.all(np.diagonal(B) == 1.0))

    @cached_property
    def layout(self) -> tuple[tuple[Irrep, int, int], ...]:
        """Per-block (irrep, column offset, multiplicity) in block coordinates."""
        out = []
        offset = 0
        for irrep_id, mult in self.blocks:
            psi = irrep_by_id(self.group, irrep_id)
            out.append((psi, offset, mult))
            offset += mult * psi.dim
        if offset != self.dim:
            raise ValueError("block dimensions do not match Q size")
        return tuple(out)

    def block_diagonal(self, g: int) -> np.ndarray:
        """Materialize the block-diagonal matrix: kron(psi(g), I_mult) per block."""
        out = np.zeros((self.dim, self.dim))
        for psi, offset, mult in self.layout:
            span = slice(offset, offset + mult * psi.dim)
            out[span, span] = np.kron(psi.matrices[g], np.eye(mult))
        return out

    def rho(self, g: int) -> np.ndarray:
        """Materialize the represented action of element g."""
        if self.is_identity:
            return self.block_diagonal(g)
        return self.Q @ self.block_diagonal(g) @ self.Q.T

    def to_block(self, X: np.ndarray) -> np.ndarray:
        """Map batch rows X (batch, dim) to block coordinates (rows times Q)."""
        if self.is_identity:
            return X
        # With one channel the batched matmul below would be one
        # matrix-vector product per row, about 5x slower than one GEMM.
        if self.channels == 1:
            return X @ self.base_Q
        U = np.matmul(self.base_Q.T, X.reshape(X.shape[0], -1, self.channels))
        return U.reshape(X.shape[0], self.dim)

    def from_block(self, V: np.ndarray) -> np.ndarray:
        """Map batch rows in block coordinates back (rows times Q^T)."""
        if self.is_identity:
            return V
        if self.channels == 1:
            return V @ self.base_Q.T
        X = np.matmul(self.base_Q, V.reshape(V.shape[0], -1, self.channels))
        return X.reshape(V.shape[0], self.dim)

    def __repr__(self) -> str:
        return f"RepSpec(group={self.group!r}, blocks={self.blocks}, dim={self.dim})"


class SharedIrrep(NamedTuple):
    """One irrep common to an input and an output rep.

    The offsets are its first block column in each rep (see `layout`)
    and the m's its multiplicities there; `in_cols` and `out_cols` are
    its whole column ranges, and `basis` its c_psi intertwiner matrices.
    """

    psi: Irrep
    in_offset: int
    m_in: int
    out_offset: int
    m_out: int

    @property
    def irrep_id(self) -> str:
        return self.psi.id

    @property
    def dim(self) -> int:
        return self.psi.dim

    @property
    def basis(self) -> np.ndarray:
        return _intertwiner_basis_cached(self.psi.dim, self.psi.type_c)

    @property
    def in_cols(self) -> slice:
        return slice(self.in_offset, self.in_offset + self.m_in * self.psi.dim)

    @property
    def out_cols(self) -> slice:
        return slice(self.out_offset, self.out_offset + self.m_out * self.psi.dim)


def shared_irreps(in_rep: RepSpec, out_rep: RepSpec) -> tuple[SharedIrrep, ...]:
    """One SharedIrrep per irrep of positive multiplicity in both reps.

    The records follow `out_rep`'s block order.
    """
    ins = {psi.id: (offset, mult) for psi, offset, mult in in_rep.layout if mult > 0}
    return tuple(
        SharedIrrep(psi, *ins[psi.id], out_offset, m_out)
        for psi, out_offset, m_out in out_rep.layout
        if m_out > 0 and psi.id in ins
    )


def regular_matrices(G: FiniteGroup) -> np.ndarray:
    """Return the permutation matrices of the regular representation.

    Shape (order, order, order); column j of matrix g has its 1 in row
    cayley[g, j], so signals transform by left translation.
    """
    n = G.order
    mats = np.zeros((n, n, n))
    rows = G.cayley
    cols = np.broadcast_to(np.arange(n), (n, n))
    mats[np.arange(n)[:, None], rows, cols] = 1.0
    return mats


@lru_cache(maxsize=None)
def _regular_cached(kind: str, N: int) -> RepSpec:
    G = build_group(kind, N)
    n = G.order
    blocks = []
    cols = []
    for psi in irreps_of(G):
        d, c = psi.dim, psi.type_c
        mult = d // c
        blocks.append((psi.id, mult))
        scale = np.sqrt(d / n)
        for p in range(d):
            for q in range(mult):
                cols.append(scale * psi.matrices[:, p, q])
    Q = _freeze(np.column_stack(cols))
    return RepSpec(group=G, blocks=tuple(blocks), base_Q=Q)


def regular_representation(G: FiniteGroup) -> RepSpec:
    """Return the regular representation with its orthonormal Fourier basis.

    Every irrep appears with multiplicity dim/c; the columns of Q are the
    scaled matrix coefficients sqrt(dim/|G|) psi(.)[p, q] of the retained
    columns q < dim/c, which form an exactly orthonormal basis.  Column
    q of psi is copy q, so the coefficient (p, q) sits at p * dim/c + q
    of psi's range.
    """
    return _regular_cached(G.kind, G.N)


def _check_representation(G: FiniteGroup, rho: np.ndarray, tol: float = 1e-8) -> None:
    n = G.order
    if rho.shape[0] != n or rho.shape[1] != rho.shape[2]:
        raise ValueError(f"expected shape ({n}, d, d), got {rho.shape}")
    dim = rho.shape[1]
    if not np.allclose(rho[0], np.eye(dim), atol=tol):
        raise ValueError("rho(identity) is not the identity matrix")
    products = np.einsum("gij,hjk->ghik", rho, rho)
    if not np.allclose(products, rho[G.cayley], atol=tol):
        raise ValueError("input is not a representation (homomorphism fails)")
    gram = np.einsum("gji,gjk->gik", rho, rho)
    if not np.allclose(gram, np.eye(dim)[None], atol=tol):
        raise ValueError("representation matrices must be orthogonal")


# The largest violation of the RepSpec invariants (see `rep_violation`)
# that `decompose_representation` accepts.
DECOMPOSE_TOL = 1e-9


def decompose_representation(G: FiniteGroup, rho: np.ndarray) -> RepSpec:
    """Decompose an orthogonal representation of G into irrep blocks.

    Multiplicities come from character inner products.  The basis is
    built by twirl-averaging the standard seed matrices E_pq into
    intertwiners: twirling projects orthogonally onto Hom_G(rho, psi),
    so the twirled seeds span it and the sweep finds every copy.  The
    result satisfies the RepSpec invariants within DECOMPOSE_TOL.
    """
    rho = np.asarray(rho, dtype=np.float64)
    _check_representation(G, rho)
    n_group = G.order
    dim = rho.shape[1]
    chars = np.trace(rho, axis1=1, axis2=2)

    blocks = []
    total = 0
    for psi in irreps_of(G):
        raw = float(chars @ psi.characters) / (n_group * psi.type_c)
        mult = int(round(raw))
        if abs(raw - mult) > 1e-6 or mult < 0:
            raise ValueError(
                f"character inner product for {psi.id} is {raw}, not a multiplicity"
            )
        if mult > 0:
            blocks.append((psi.id, mult))
            total += mult * psi.dim
    if total != dim:
        raise ValueError("multiplicities do not add up to the representation size")

    Q = np.empty((dim, dim))
    offset = 0
    for irrep_id, mult in blocks:
        psi = irrep_by_id(G, irrep_id)
        d = psi.dim
        accepted: list[np.ndarray] = []
        for p in range(d):
            for q in range(dim):
                if len(accepted) == mult:
                    break
                seed_matrix = np.zeros((d, dim))
                seed_matrix[p, q] = 1.0
                T = (
                    np.einsum(
                        "gip,pq,gjq->ij", psi.matrices, seed_matrix, rho, optimize=True
                    )
                    / n_group
                )
                for U in accepted:
                    T = T - (T @ U.T) @ U
                lam = float(np.einsum("ij,ij->", T, T)) / d
                if lam > 1e-10:
                    accepted.append(T / np.sqrt(lam))
        if len(accepted) < mult:
            raise RuntimeError(
                f"failed to extract {mult} copies of {irrep_id}; "
                "input is numerically degenerate"
            )
        for q, U in enumerate(accepted):
            Q[:, offset + q : offset + mult * d : mult] = U.T
        offset += mult * d

    rep = RepSpec(group=G, blocks=tuple(blocks), base_Q=_freeze(Q))
    err = rep_violation(rep, rho)
    if err > DECOMPOSE_TOL:
        raise RuntimeError(f"decomposition breaks the RepSpec invariants ({err:.2e})")
    return rep


def rep_violation(rep: RepSpec, rho: np.ndarray | None = None) -> float:
    """The largest violation of the RepSpec invariants.

    The maximum of |Q^T Q - I| and |Q Q^T - I| entrywise and, when the
    explicit action rho (order, dim, dim) is given, of
    |Q^T rho(g) Q - block diagonal(g)| over every element g.
    """
    Q, eye = rep.Q, np.eye(rep.dim)
    worst = float(np.max(np.abs(Q.T @ Q - eye), initial=0.0))
    worst = max(worst, float(np.max(np.abs(Q @ Q.T - eye), initial=0.0)))
    if rho is not None:
        for g in range(rep.group.order):
            err = np.abs(Q.T @ rho[g] @ Q - rep.block_diagonal(g))
            worst = max(worst, float(np.max(err, initial=0.0)))
    return worst


def fourier_transform(G: FiniteGroup, x: np.ndarray) -> dict[str, np.ndarray]:
    """Group Fourier transform with counting measure, retained columns only.

    Returns, per irrep, the matrix sum_g x(g) psi(g) restricted to its
    first dim/c columns (the rest are redundant for real irreps).
    """
    full = fourier_transform_full(G, x)
    return {psi.id: full[psi.id][:, : psi.dim // psi.type_c] for psi in irreps_of(G)}


def fourier_transform_full(G: FiniteGroup, x: np.ndarray) -> dict[str, np.ndarray]:
    """Group Fourier transform including the redundant columns."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (G.order,):
        raise ValueError(f"expected signal of length {G.order}, got shape {x.shape}")
    return {
        psi.id: np.einsum("g,gpq->pq", x, psi.matrices) for psi in irreps_of(G)
    }


def inverse_fourier(G: FiniteGroup, coeffs: dict[str, np.ndarray]) -> np.ndarray:
    """Invert fourier_transform exactly via the orthonormal regular basis.

    Irrep psi's coefficients, scaled by sqrt(dim/|G|), are its block
    coordinates in the regular representation.
    """
    parts = []
    for psi in irreps_of(G):
        keep = psi.dim // psi.type_c
        mat = np.asarray(coeffs[psi.id], dtype=np.float64)
        if mat.shape != (psi.dim, keep):
            raise ValueError(
                f"coefficients for {psi.id} must have shape {(psi.dim, keep)}, "
                f"got {mat.shape}"
            )
        parts.append(np.sqrt(psi.dim / G.order) * mat.reshape(-1))
    return regular_representation(G).Q @ np.concatenate(parts)


@lru_cache(maxsize=None)
def _circulant_index(kind: str, N: int) -> np.ndarray:
    G = build_group(kind, N)
    return np.ascontiguousarray(G.cayley[G.inverses, :])


def group_circulant(G: FiniteGroup, w: np.ndarray) -> np.ndarray:
    """Build the group circulant matrix W[a, b] = w(g_a^{-1} g_b).

    Row 0 equals w itself, and W commutes with the regular representation.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    if w.shape != (G.order,):
        raise ValueError(f"expected filter of length {G.order}, got shape {w.shape}")
    return w[_circulant_index(G.kind, G.N)]


def frequency_action(G: FiniteGroup, f: int, reflected: bool) -> np.ndarray:
    """The continuous frequency-f circle action restricted to G, per element.

    With reflected=False this is the 2D rotation representation of a
    single circle; with reflected=True it is the 4D representation of a
    pair of circles where reflections swap the circles and negate the
    angle.  Returns the (order, dim, dim) matrices.  Only cyclic and
    dihedral groups are supported.
    """
    if G.kind == "quaternion":
        raise ValueError("frequency representations need a rotation group")
    if f < 0:
        raise ValueError("frequency must be nonnegative")
    N = G.N
    angles = 2 * np.pi * f * np.arange(N) / N
    rots = np.stack([_rotation(a) for a in angles])
    if not reflected:
        rot_mats = rots
        refl = _REFLECT_2D
    else:
        rot_mats = np.zeros((N, 4, 4))
        rot_mats[:, :2, :2] = rots
        rot_mats[:, 2:, 2:] = rots
        refl = np.zeros((4, 4))
        refl[:2, 2:] = _REFLECT_2D
        refl[2:, :2] = _REFLECT_2D
    if G.kind == "cyclic":
        return rot_mats
    return np.concatenate([rot_mats, np.einsum("ij,gjk->gik", refl, rot_mats)])


def restricted_frequency_rep(G: FiniteGroup, f: int, reflected: bool) -> RepSpec:
    """Decompose `frequency_action(G, f, reflected)` into irrep blocks."""
    return decompose_representation(G, frequency_action(G, f, reflected))


def direct_sum(parts: list[RepSpec]) -> RepSpec:
    """Direct-sum several reps of the same group, regrouping irrep copies.

    The copies of an irrep are numbered part by part, in the order of
    `parts`, and the irreps follow the group's catalog order.
    """
    if not parts:
        raise ValueError("direct_sum needs at least one rep")
    G = parts[0].group
    if any(r.group is not G for r in parts):
        raise ValueError("all parts must share the same group")
    if len(parts) == 1:
        return parts[0]
    dim = sum(r.dim for r in parts)
    Q0 = np.zeros((dim, dim))
    # Per irrep, the (component, copy) grid of each part's columns in Q0.
    copies: dict[str, list[np.ndarray]] = {}
    base = 0
    for r in parts:
        Q0[base : base + r.dim, base : base + r.dim] = r.Q
        for psi, off, mult in r.layout:
            start = base + off
            grid = np.arange(start, start + psi.dim * mult).reshape(psi.dim, mult)
            copies.setdefault(psi.id, []).append(grid)
        base += r.dim
    blocks = []
    columns = []
    for psi in irreps_of(G):
        if psi.id in copies:
            grid = np.hstack(copies[psi.id])
            blocks.append((psi.id, grid.shape[1]))
            columns.append(grid.reshape(-1))
    return RepSpec(group=G, blocks=tuple(blocks), base_Q=_freeze(Q0[:, np.concatenate(columns)]))


def stack_rep(base: RepSpec, channels: int) -> RepSpec:
    """Stack `channels` independent copies of a rep, channel fastest.

    The result keeps the base rep's `base_Q` and multiplies its channel
    count, so Q = kron(base_Q, I) is applied as one batched matmul and
    every irrep still fills one contiguous range of block coordinates.
    """
    if channels < 1:
        raise ValueError("channels must be >= 1")
    if channels == 1:
        return base
    blocks = tuple((pid, mult * channels) for pid, mult in base.blocks)
    return RepSpec(
        group=base.group, blocks=blocks, base_Q=base.base_Q, channels=base.channels * channels
    )


def trivial_stack(G: FiniteGroup, n: int) -> RepSpec:
    """n copies of the trivial irrep with the identity basis."""
    if n < 1:
        raise ValueError("need at least one copy")
    return RepSpec(group=G, blocks=(("triv", n),), base_Q=_freeze(np.eye(1)), channels=n)


def rep_to_json(rep: RepSpec) -> dict:
    """Serialize a rep as {"blocks": [[id, mult], ...], "Q": ...}.

    Q is "identity" when it is exactly the identity matrix, otherwise a
    row-major flat float list.
    """
    q = "identity" if rep.is_identity else rep.Q.reshape(-1).tolist()
    return {"blocks": [[pid, mult] for pid, mult in rep.blocks], "Q": q}


# Largest orthogonality violation (see `rep_violation`) that
# `rep_from_json` accepts.
JSON_ORTHOGONALITY_TOL = 1e-10


def rep_from_json(G: FiniteGroup, data: dict) -> RepSpec:
    """Rebuild a single-channel rep from its serialized form.

    Raises ValueError when Q is not a flat list of dim x dim entries, or
    not orthogonal to within JSON_ORTHOGONALITY_TOL: every layer assumes
    Q^T = Q^{-1}, so such a basis would silently give another network.
    """
    blocks = tuple((str(pid), int(mult)) for pid, mult in data["blocks"])
    dim = sum(irrep_by_id(G, pid).dim * mult for pid, mult in blocks)
    if data["Q"] == "identity":
        return RepSpec(group=G, blocks=blocks, base_Q=_freeze(np.eye(dim)))
    Q = np.asarray(data["Q"], dtype=np.float64)
    if Q.shape != (dim * dim,):
        raise ValueError(f"rep basis Q holds {Q.size} entries, not {dim}x{dim}")
    Q = Q.reshape(dim, dim)
    rep = RepSpec(group=G, blocks=blocks, base_Q=_freeze(Q))
    err = rep_violation(rep)
    if not err <= JSON_ORTHOGONALITY_TOL:
        raise ValueError(
            f"rep basis Q is not orthogonal: max|Q^T Q - I| and max|Q Q^T - I| "
            f"reach {err:.3g}, above {JSON_ORTHOGONALITY_TOL:g}"
        )
    return rep
