"""Equivariant linear layers, network assembly, and margin training.

A layer maps between two RepSpecs and is parametrized purely in the
Fourier domain: for every irrep shared by the input and output reps,
each (output copy, input copy) pair carries one coefficient vector of
length c_psi in the intertwiner basis.  Block coordinates place an
irrep's copies fastest, so its superblock is sum_t kron(basis_t,
coef_t) with coef_t the (m_out, m_in) matrix of t-th coefficients, and
it sits in one contiguous row and column range.  In block coordinates
the layer is the direct sum of its superblocks, so applying it is a
change of basis into the input's block coordinates (one batched matmul
with the rep's small base basis), one matmul per shared irrep, and a
change of basis back out of the output's; the superblocks are cached
until the coefficients change.  The dense matrix W = Q_out (block
matrix) Q_in^T commutes with the group action by construction and is
the oracle of the verification checks.  Only a dense-route layer (see
below) caches W; a block-route layer's W is an oracle build, made
afresh on each read and never kept.

Each layer picks its route from its reps alone (see
EquivariantLayer.blockwise).  It is applied through its superblocks
when the products they skip, per row, outweigh the extra basis changes
the block route makes: a regular-to-regular layer over H keeps about
1/|H| of W's entries.  Otherwise it is applied through W: the thin
data-input and logit layers, whose W folds a basis change into a
narrow matrix, and C1 layers, whose W is their one superblock, a view
of the coefficients.  A layer's `backward` takes back what its `apply`
saved and forms the gradients in block coordinates on both routes; the
network runs `forward` and `loss_and_grads` through one loop over its
layers.  `forward` runs many rows in blocks of EVAL_ROWS, so the block
route's copy in block coordinates never grows with the set.

`train` runs Adam in place: each coefficient array and its two moments
are updated by a fixed sequence of `out=` ufuncs, over chunks of
ADAM_CHUNK elements (an array that fits in one is updated whole)
through two scratch buffers, so a step allocates nothing and gives the
textbook expression's values bit for bit.

Every weight state of a layer has its own `version`, renewed by
`mark_dirty`, and a network remembers the margins of the last set it
evaluated, keyed by its layers' versions and a digest of the set: a
repeated `margins` call on unchanged weights and data (the stopping
check of `train`'s last epoch, then the 0-1 and margin losses of the
bound report) costs one hash, not a forward pass.  So coefficients may
be mutated in place only when `mark_dirty` follows, which the
superblock and dense-route W caches require as well.

Networks alternate these layers with pointwise ReLU applied in the
represented coordinates (the group domain for regular-representation
features), carry no biases, and end in a trivial-irrep-only layer so
logits are invariant.  A network is its list of chained layers,
`EquivariantNetwork(layers)`: its group, hidden channel counts and class
count are read from the layers' reps.  Which irreps a layer's input and
output share, and where, is its `shared` tuple of `irreps.SharedIrrep`
records.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, group_from_json, group_to_json
from .irreps import (
    RepSpec,
    regular_representation,
    rep_from_json,
    rep_to_json,
    shared_irreps,
    stack_rep,
    trivial_stack,
)
from .kernels import expand_coefficients, project_coefficients

__all__ = [
    "EquivariantLayer",
    "EquivariantNetwork",
    "MarginNotReached",
    "TrainConfig",
    "TrainingDiverged",
    "TrainResult",
    "build_network",
    "channels_for_width",
    "empirical_margin_loss",
    "load_checkpoint",
    "margins",
    "save_checkpoint",
    "train",
    "write_atomic",
]


# Rows per block when `forward` (and so `margins`) evaluates many rows,
# so that its peak memory does not grow with the number of samples.
EVAL_ROWS = 256

# GEMM multiply-adds that cost as much as one entry of a batched basis
# change (`to_block`/`from_block`): about 1 ns per entry against about
# 0.02 ns per multiply-add.  A layer takes the block route when the
# multiply-adds its superblocks skip per row outweigh this many times the
# entries of the extra basis changes a row needs (see
# EquivariantLayer.blockwise).
BASIS_CHANGE_COST = 50

# Source of layer versions: no two weight states of any layers share one.
_VERSIONS = itertools.count()


class EquivariantLayer:
    """A linear map constrained to commute with the group action.

    Parameters live in `coefficients`, a dict keyed by irrep id holding
    arrays of shape (m_out, m_in, c_psi), one per record of `shared`
    (`shared_irreps(in_rep, out_rep)`).  The superblocks they expand
    to are cached, and so is the dense `matrix` of a dense-route layer
    once read (a block-route layer builds it on each read); call
    `mark_dirty` after mutating coefficient arrays in place.  It also
    renews `version`, which names the weight state in the network's
    margins memo (see `margins`).

    `blockwise` selects how `apply` computes A W^T, and `backward` dZ W:
    through the superblocks, or through the dense matrix; either route
    gives the same values.  It is read from the reps alone: per row, the
    superblocks skip 2 (n_in n_out - P) multiply-adds (forward and
    backward; P is the superblocks' total size), and the block route is
    taken when that is more than BASIS_CHANGE_COST times the entries of
    the one extra basis change per side that it makes (a side whose
    basis is the identity costs nothing).  On both routes `backward`
    forms the gradients in block coordinates.  So a C1 layer, whose one
    superblock is all of W, stays dense, and so do thin layers, whose W
    folds a basis change.
    """

    def __init__(self, in_rep: RepSpec, out_rep: RepSpec):
        if in_rep.group is not out_rep.group:
            raise ValueError("layer reps must share the same group")
        self.in_rep = in_rep
        self.out_rep = out_rep
        self.shared = shared_irreps(in_rep, out_rep)
        self.coefficients = {
            b.irrep_id: np.zeros((b.m_out, b.m_in, b.psi.type_c)) for b in self.shared
        }
        self._superblocks: dict[str, np.ndarray] | None = None
        self._matrix: np.ndarray | None = None
        self.version = next(_VERSIONS)
        n_in, n_out = in_rep.dim, out_rep.dim
        skipped = n_in * n_out - sum(b.dim**2 * b.m_out * b.m_in for b in self.shared)
        touched = sum(rep.dim for rep in (in_rep, out_rep) if not rep.is_identity)
        self.blockwise = 2 * skipped > BASIS_CHANGE_COST * touched

    @property
    def group(self) -> FiniteGroup:
        return self.in_rep.group

    @property
    def param_count(self) -> int:
        return sum(a.size for a in self.coefficients.values())

    def mark_dirty(self) -> None:
        """Drop the cached superblocks and dense-route W; renew `version`."""
        self._superblocks = None
        self._matrix = None
        self.version = next(_VERSIONS)

    def set_coefficients(self, values: dict[str, np.ndarray]) -> None:
        """Replace coefficient arrays (copied; shapes validated)."""
        for pid, arr in values.items():
            if pid not in self.coefficients:
                raise KeyError(f"irrep {pid!r} is not shared by this layer")
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != self.coefficients[pid].shape:
                raise ValueError(
                    f"coefficients for {pid!r} must have shape "
                    f"{self.coefficients[pid].shape}, got {arr.shape}"
                )
            self.coefficients[pid] = arr.copy()
        self.mark_dirty()

    def block_matrix(self) -> np.ndarray:
        """The layer matrix in block coordinates (zero across irreps); a
        superblock spanning it all (C1's) is returned itself, not copied."""
        shape = (self.out_rep.dim, self.in_rep.dim)
        blocks = list(self.superblocks().values())
        if len(blocks) == 1 and blocks[0].shape == shape:
            return blocks[0]
        S = np.zeros(shape)
        for b, block in zip(self.shared, blocks):
            S[b.out_cols, b.in_cols] = block
        return S

    def superblocks(self) -> dict[str, np.ndarray]:
        """Per-irrep dense blocks (d*m_out, d*m_in) in block coordinates.

        Cached until dirty; callers must not modify the arrays.  The block
        of an irrep with the basis [[1]] is a view of its coefficients.
        """
        if self._superblocks is None:
            self._superblocks = {
                b.irrep_id: expand_coefficients(
                    np.ascontiguousarray(self.coefficients[b.irrep_id]), b.basis
                )
                for b in self.shared
            }
        return self._superblocks

    @property
    def matrix(self) -> np.ndarray:
        """Dense W = Q_out (block matrix) Q_in^T.

        A dense-route layer caches it until dirty, since `apply` and
        `backward` read it every step.  A block-route layer's W is read
        only by the oracles: it is built afresh on each read and not
        kept.  The block matrix is dropped before W is formed, so one
        W-sized temporary is alive beside the result.
        """
        if self._matrix is not None:
            return self._matrix
        T = self.in_rep.from_block(self.block_matrix())
        W = self.out_rep.from_block(T.T).T
        if not self.blockwise:
            self._matrix = W
        return W

    def apply(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply the layer to batch rows A; returns (saved, A W^T).

        `saved` is what `backward` reads: A in the input's block
        coordinates on the block route, A itself on the dense route.
        """
        if not self.blockwise:
            return A, A @ self.matrix.T
        U = self.in_rep.to_block(A)
        return U, self.out_rep.from_block(self._superblock_products(U))

    def backward(
        self, saved: np.ndarray, dZ: np.ndarray, input_grad: bool = True
    ) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
        """The coefficient gradients and dZ W (None unless `input_grad`),
        from `apply`'s `saved` and the output gradient dZ.

        Each superblock's gradient is dZ^T times the input, both in block
        coordinates, projected onto its intertwiner basis.  dZ W goes back
        the way the layer was applied, after the input is dropped.
        """
        U = saved if self.blockwise else self.in_rep.to_block(saved)
        del saved
        gout = self.out_rep.to_block(dZ)
        grads = {
            b.irrep_id: project_coefficients(gout[:, b.out_cols].T @ U[:, b.in_cols], b.basis)
            for b in self.shared
        }
        del U
        if not input_grad:
            return grads, None
        if not self.blockwise:
            return grads, dZ @ self.matrix
        return grads, self.in_rep.from_block(self._superblock_products(gout, back=True))

    def _superblock_products(self, V: np.ndarray, back: bool = False) -> np.ndarray:
        """Block-coordinate rows V through the superblocks: V S^T into the
        output's block coordinates, or V S into the input's when `back`
        (S is `block_matrix()`); columns that no superblock reaches are zero."""
        rep = self.in_rep if back else self.out_rep
        cols = [(b.out_cols, b.in_cols) if back else (b.in_cols, b.out_cols) for b in self.shared]
        covered = sum(dst.stop - dst.start for _, dst in cols)
        out = (np.empty if covered == rep.dim else np.zeros)((V.shape[0], rep.dim))
        for (src, dst), S in zip(cols, self.superblocks().values()):
            np.matmul(V[:, src], S if back else S.T, out=out[:, dst])
        return out

    def __repr__(self) -> str:
        return (
            f"EquivariantLayer({self.in_rep.dim}->{self.out_rep.dim}, "
            f"params={self.param_count})"
        )


class EquivariantNetwork:
    """An invariant classifier: equivariant layers with ReLU in between.

    Each layer's input rep must be the previous layer's output rep; the
    group, hidden channel counts and class count are read from the reps.
    The network holds the memo of `margins`: one entry, the layers'
    versions, a digest of the set and its margins.
    """

    def __init__(self, layers: list[EquivariantLayer]):
        if not layers:
            raise ValueError("network needs at least one layer")
        for l in range(1, len(layers)):
            if layers[l].in_rep is not layers[l - 1].out_rep:
                raise ValueError(
                    f"layer {l}'s input rep is not layer {l - 1}'s output rep"
                )
        self.layers = layers
        self.group = layers[0].group
        self.hidden_channels = tuple(layer.out_rep.channels for layer in layers[:-1])
        self.n_classes = layers[-1].out_rep.dim
        self._margins_memo: tuple[tuple[int, ...], bytes, np.ndarray] | None = None

    @property
    def input_rep(self) -> RepSpec:
        return self.layers[0].in_rep

    @property
    def reps(self) -> list[RepSpec]:
        return [self.layers[0].in_rep] + [layer.out_rep for layer in self.layers]

    @property
    def depth(self) -> int:
        return len(self.layers)

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Logits for a batch of rows.

        The rows pass through the layers in blocks of EVAL_ROWS, so the
        peak memory does not grow with their number; each block's logits
        are those of a forward pass over that block alone.  Raises
        ValueError, before any layer runs, unless X is 2D with the input
        rep's dimension as its width.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"need a 2D batch of rows, got a {X.ndim}D array")
        self._check_width(X)
        out = np.empty((X.shape[0], self.n_classes))
        for start in range(0, X.shape[0], EVAL_ROWS):
            out[start : start + EVAL_ROWS] = self._run(X[start : start + EVAL_ROWS])
        return out

    def _run(self, A: np.ndarray, saved=None, masks=None) -> np.ndarray:
        """The logits of rows A, through the layers and the ReLU between.
        Lists `saved` and `masks`, if given, receive each layer's `saved`
        (see EquivariantLayer.apply) and each hidden layer's ReLU mask;
        otherwise no layer's input outlives its `apply`."""
        last = len(self.layers) - 1
        for l, layer in enumerate(self.layers):
            kept, A = layer.apply(A)
            if saved is not None:
                saved.append(kept)
                if l < last:
                    masks.append(A > 0.0)
            del kept
            if l < last:
                np.maximum(A, 0.0, out=A)
        return A

    def _check_width(self, X: np.ndarray) -> None:
        """Raise ValueError unless the rows of X have the input rep's dimension."""
        if X.shape[-1] != self.input_rep.dim:
            raise ValueError(
                f"input dimension {X.shape[-1]} does not match rep "
                f"dimension {self.input_rep.dim}"
            )

    def loss_and_grads(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[float, list[dict[str, np.ndarray]]]:
        """Mean cross-entropy and its gradient per coefficient array.

        One forward pass saves each layer's input and ReLU mask; the
        backward pass runs the layers' `backward` in reverse.
        Raises ValueError for an empty or non-2D batch, one whose width is
        not the input rep's dimension, or unless y holds one in-range
        integer label per row of X.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("need a nonempty 2D batch")
        self._check_width(X)
        _check_labels(X, y, self.n_classes)
        saved: list[np.ndarray] = []
        masks: list[np.ndarray] = []
        loss, dZ = _cross_entropy(self._run(X, saved, masks), y)
        # The lists hold the only references to their entries, each popped
        # as it is read: `backward` frees a saved input once it is used.
        grads: list[dict[str, np.ndarray]] = []
        for l in range(len(self.layers) - 1, -1, -1):
            gdict, dA = self.layers[l].backward(saved.pop(), dZ, input_grad=l > 0)
            grads.append(gdict)
            if dA is not None:
                dZ = np.multiply(dA, masks.pop(), out=dA)
        grads.reverse()
        return loss, grads

    def __repr__(self) -> str:
        dims = " -> ".join(str(r.dim) for r in self.reps)
        return f"EquivariantNetwork({self.group!r}, {dims})"


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and gradient with respect to the logits."""
    n = logits.shape[0]
    zmax = logits.max(axis=1, keepdims=True)
    ez = np.exp(logits - zmax)
    total = ez.sum(axis=1, keepdims=True)
    logp = (logits - zmax) - np.log(total)
    rows = np.arange(n)
    loss = float(-logp[rows, y].mean())
    dZ = ez / total
    dZ[rows, y] -= 1.0
    dZ /= n
    return loss, dZ


def channels_for_width(G: FiniteGroup, width: int) -> int:
    """Regular channels whose effective width c*|H| is closest to `width`."""
    if width < 1:
        raise ValueError("width must be positive")
    return max(1, round(width / G.order))


def build_network(
    G: FiniteGroup,
    input_rep: RepSpec,
    hidden_channels: list[int] | tuple[int, ...],
    n_classes: int,
    seed: int = 0,
) -> EquivariantNetwork:
    """Assemble a network with regular hidden features and invariant logits.

    Hidden layer l carries hidden_channels[l] copies of the regular
    representation; the final layer targets n_classes trivial copies.
    Coefficients are initialized i.i.d. Gaussian with variance equal to
    1 over the layer input dimension.
    """
    if len(hidden_channels) == 0:
        raise ValueError("hidden_channels is empty: need at least one hidden layer")
    if any(c < 1 for c in hidden_channels):
        raise ValueError(f"hidden_channels must all be >= 1, got {list(hidden_channels)}")
    if n_classes < 2:
        raise ValueError(f"n_classes must be at least 2, got {n_classes}")
    reg = regular_representation(G)
    reps = [input_rep]
    reps += [stack_rep(reg, int(c)) for c in hidden_channels]
    reps.append(trivial_stack(G, n_classes))
    layers = [EquivariantLayer(reps[i], reps[i + 1]) for i in range(len(reps) - 1)]
    rng = np.random.default_rng(seed)
    for layer in layers:
        std = 1.0 / np.sqrt(layer.in_rep.dim)
        for pid, arr in layer.coefficients.items():
            layer.coefficients[pid] = rng.normal(0.0, std, size=arr.shape)
        layer.mark_dirty()
    return EquivariantNetwork(layers)


def _digest(*arrays: np.ndarray) -> bytes:
    """A blake2b digest of each array's shape, dtype and bytes."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(f"{a.shape}{a.dtype.str}".encode())
        h.update(np.ascontiguousarray(a))
    return h.digest()


def _check_labels(X: np.ndarray, y: np.ndarray, n_classes: int) -> None:
    """Raise ValueError unless y holds one label in range(n_classes) per row of X."""
    if y.shape != X.shape[:1] or not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"need one integer label per row of X {X.shape}, got {y.dtype} {y.shape}")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError("labels out of range")


def margins(net: EquivariantNetwork, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample margin: true-class logit minus the best other logit.

    One `forward` call evaluates the set, in blocks of EVAL_ROWS rows.
    `net` keeps the result of its last call, keyed by its layers'
    versions and a digest of X (as float64) and y, and a call with the
    same key returns a copy of it without a forward pass.  An in-place
    edit of X or y changes the digest; an in-place edit of the
    coefficients is seen only through `mark_dirty`, which every update
    in this module calls.
    Raises ValueError for an empty set, whose mean margin loss would be
    NaN, or unless y holds one in-range integer label per row of X.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if len(X) == 0:
        raise ValueError("need at least one sample")
    _check_labels(X, y, net.n_classes)
    versions = tuple(layer.version for layer in net.layers)
    digest = _digest(X, y)
    memo = net._margins_memo
    if memo is not None and memo[0] == versions and memo[1] == digest:
        return memo[2].copy()
    logits = net.forward(X)
    rows = np.arange(logits.shape[0])
    true = logits[rows, y]
    logits[rows, y] = -np.inf
    out = true - logits.max(axis=1)
    net._margins_memo = (versions, digest, out.copy())
    return out


def empirical_margin_loss(
    net: EquivariantNetwork, X: np.ndarray, y: np.ndarray, gamma: float
) -> float:
    """Fraction of samples whose margin fails to exceed gamma.

    gamma = 0 gives the 0-1 training error.
    """
    if not gamma >= 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return float(np.mean(margins(net, X, y) <= gamma))


# Fraction of training points whose margin must exceed gamma before
# `train` stops.
MARGIN_TARGET = 0.99


@dataclass(frozen=True)
class TrainConfig:
    """Optimization and stopping parameters for margin training."""

    gamma: float
    max_epochs: int = 800
    learning_rate: float = 0.01
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )


@dataclass(frozen=True)
class TrainResult:
    """The epoch at which training reached the margin target, and the
    fraction of training points above the margin after it."""

    epochs: int
    margin_accuracy: float


class MarginNotReached(RuntimeError):
    """Raised when training exhausts max_epochs below the margin target."""

    def __init__(self, epochs: int, achieved: float):
        super().__init__(
            f"margin target not reached after {epochs} epochs "
            f"(achieved fraction {achieved:.4f})"
        )
        self.epochs = epochs
        self.achieved = achieved


class TrainingDiverged(RuntimeError):
    """Raised when a batch loss or the coefficients stop being finite."""

    def __init__(self, epoch: int, what: str):
        super().__init__(f"training diverged in epoch {epoch}: {what}")
        self.epoch = epoch


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Elements per chunk of the in-place Adam update, so that a chunk of a
# coefficient array, its gradient, its two moments and the two scratch
# buffers (1.5 MB together) stay in cache between the update's passes.
ADAM_CHUNK = 32768


def _adam_state(
    net: EquivariantNetwork,
) -> dict[tuple[int, str], tuple[np.ndarray, ...]]:
    """Per coefficient array: its two moments and two scratch views of one chunk.

    A chunk is the leading-axis rows of ADAM_CHUNK elements (at least
    one row, at most the array).  Every array's scratch views share the
    same two buffers.
    """
    arrays = {
        (l, pid): arr
        for l, layer in enumerate(net.layers)
        for pid, arr in layer.coefficients.items()
    }
    chunks = {
        key: (min(arr.shape[0], max(1, ADAM_CHUNK // arr[0].size)),) + arr.shape[1:]
        for key, arr in arrays.items()
    }
    size = max(math.prod(shape) for shape in chunks.values())
    buffers = (np.empty(size), np.empty(size))
    return {
        key: (
            np.zeros_like(arr),
            np.zeros_like(arr),
            *(buf[: math.prod(chunks[key])].reshape(chunks[key]) for buf in buffers),
        )
        for key, arr in arrays.items()
    }


def _adam_update(
    coef: np.ndarray,
    g: np.ndarray,
    m1: np.ndarray,
    m2: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    lr: float,
    corr1: float,
    corr2: float,
) -> None:
    """One Adam step on `coef` and its moments, in place and chunk by chunk.

    Each element goes through the operations of
        m1 = b1*m1 + (1-b1)*g;  m2 = b2*m2 + (1-b2)*(g*g)
        coef -= lr * ((m1/corr1) / (sqrt(m2/corr2) + eps))
    in that order and unfolded, so the result is the expression's bit for
    bit.  `u` and `v` are scratch arrays of one chunk's shape (see
    `_adam_state`); an array of one chunk is updated whole, a larger one
    in slices of the leading axis, so `g` need not be contiguous.
    """
    rows = u.shape[0]
    if rows == coef.shape[0]:
        _adam_ops(coef, g, m1, m2, u, v, lr, corr1, corr2)
        return
    for start in range(0, coef.shape[0], rows):
        part = slice(start, start + rows)
        c = coef[part]
        n = c.shape[0]
        _adam_ops(c, g[part], m1[part], m2[part], u[:n], v[:n], lr, corr1, corr2)


def _adam_ops(c, g, a, b, u, v, lr: float, corr1: float, corr2: float) -> None:
    """The in-place ufunc sequence of `_adam_update` on arrays of one shape."""
    np.multiply(a, ADAM_BETA1, a)
    np.multiply(g, 1.0 - ADAM_BETA1, u)
    np.add(a, u, a)
    np.multiply(b, ADAM_BETA2, b)
    np.multiply(g, g, u)
    np.multiply(u, 1.0 - ADAM_BETA2, u)
    np.add(b, u, b)
    np.divide(b, corr2, u)
    np.sqrt(u, u)
    np.add(u, ADAM_EPS, u)
    np.divide(a, corr1, v)
    np.divide(v, u, v)
    np.multiply(v, lr, v)
    np.subtract(c, v, c)


def train(
    net: EquivariantNetwork,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
) -> TrainResult:
    """Adam on cross-entropy until the margin criterion is met.

    The Adam step updates each coefficient array and its two moments in
    place through two scratch buffers allocated here, once per call; its
    values are the textbook expression's, bit for bit (see `_adam_update`).
    Each update is followed by `mark_dirty`, so the epoch-end margins
    are left in the network's memo for the same set (see `margins`).

    After each epoch the fraction of training points with margin
    strictly above cfg.gamma is evaluated; training stops once it
    reaches MARGIN_TARGET and raises MarginNotReached otherwise.
    Raises TrainingDiverged on the first non-finite batch loss, or when
    the coefficients are not all finite at the end of an epoch, and
    ValueError for an X whose width is not the input rep's dimension or
    unless y holds one in-range integer label per row of X.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    m = X.shape[0]
    if m == 0:
        raise ValueError("empty training set")
    net._check_width(X)
    _check_labels(X, y, net.n_classes)
    rng = np.random.default_rng(cfg.seed)
    state = _adam_state(net)
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(m)
        for start in range(0, m, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = net.loss_and_grads(X[idx], y[idx])
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch, f"batch loss {loss}")
            step += 1
            corr1 = 1.0 - ADAM_BETA1**step
            corr2 = 1.0 - ADAM_BETA2**step
            for l, layer in enumerate(net.layers):
                for pid, coef in layer.coefficients.items():
                    _adam_update(
                        coef,
                        grads[l][pid],
                        *state[(l, pid)],
                        cfg.learning_rate,
                        corr1,
                        corr2,
                    )
                layer.mark_dirty()
            # Applied: drop the gradients before the next step forms its own.
            del grads
        if not all(
            np.isfinite(a).all() for layer in net.layers for a in layer.coefficients.values()
        ):
            raise TrainingDiverged(epoch, "non-finite coefficients")
        frac = float(np.mean(margins(net, X, y) > cfg.gamma))
        if frac >= MARGIN_TARGET:
            return TrainResult(epochs=epoch, margin_accuracy=frac)
    raise MarginNotReached(cfg.max_epochs, frac)


# Version 3: copies are numbered component-major, copy fastest, so the
# coefficients and input basis of a version 2 file mean another network.
CHECKPOINT_SCHEMA = 3


def save_checkpoint(path: str, net: EquivariantNetwork, metadata: dict) -> None:
    """Write the network and training metadata as JSON.

    The file holds the group, the architecture and, per layer, one
    nested (m_out, m_in, c_psi) list per shared irrep; floats round-trip
    exactly.  It is written through `write_atomic`, so a failed save
    leaves any previous file intact.
    """
    data = {
        "schema_version": CHECKPOINT_SCHEMA,
        "group": group_to_json(net.group),
        "architecture": {
            "input_rep": rep_to_json(net.input_rep),
            "hidden_channels": list(net.hidden_channels),
            "n_classes": net.n_classes,
        },
        "layers": [
            {pid: arr.tolist() for pid, arr in layer.coefficients.items()}
            for layer in net.layers
        ],
        "metadata": metadata,
    }
    write_atomic(path, json.dumps(data))


def write_atomic(path: str, text: str) -> None:
    """Write `text` to `path` through a temporary file and a rename.

    The temporary file sits in the same directory and is renamed over
    `path` only once it is complete, so a failed write leaves any
    previous file intact; the temporary file is removed either way.
    Newlines are written untranslated.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _is(*types):
    return lambda v: type(v) in types


def _array_of(ok):
    return lambda v: type(v) is list and all(map(ok, v))


def _flat_array_of(*types):
    return lambda v: type(v) is list and set(map(type, v)) <= set(types)


_NUMBERS = _flat_array_of(int, float)


def _pair(v) -> bool:
    """A JSON [string, integer] pair."""
    return type(v) is list and len(v) == 2 and type(v[0]) is str and type(v[1]) is int


# The JSON types a key table of `_check_keys` may name, each with its
# test of a value from `json.load` (whose types are exact: a JSON true
# is a bool, not an int); the name is what an error message says.
JSON_TYPES = {
    "a JSON object": _is(dict),
    "a JSON array": _is(list),
    "a string": _is(str),
    "a boolean": _is(bool),
    "an integer": _is(int),
    "an integer or null": _is(int, type(None)),
    "a number": _is(int, float),
    "a number or null": _is(int, float, type(None)),
    "an array of integers": _flat_array_of(int),
    "an array of numbers": _NUMBERS,
    "an array of numbers or null": lambda v: v is None or _NUMBERS(v),
    "an array of arrays of arrays of numbers": _array_of(_array_of(_NUMBERS)),
    '"identity" or an array of numbers': lambda v: v == "identity" or _NUMBERS(v),
    "an array of [irrep id, multiplicity] pairs": _array_of(_pair),
    'an array of [kind, N] pairs or "kind:N" strings': _array_of(
        lambda v: type(v) is str or _pair(v)
    ),
}

# The key paths `load_checkpoint` reads and the JSON type of each,
# checked before it reads any (see `_check_keys`).
CHECKPOINT_KEYS = {
    ("group", "kind"): "a string",
    ("group", "N"): "an integer",
    ("architecture", "input_rep", "blocks"): "an array of [irrep id, multiplicity] pairs",
    ("architecture", "input_rep", "Q"): '"identity" or an array of numbers',
    ("architecture", "hidden_channels"): "an array of integers",
    ("architecture", "n_classes"): "an integer",
    ("layers",): "a JSON array",
    ("layers", "*"): "a JSON object",
    ("layers", "*", "*"): "an array of arrays of arrays of numbers",
    ("metadata",): "a JSON object",
    ("metadata", "gamma?"): "a number or null",
}


def _check_keys(data, table: dict[tuple[str, ...], str], noun: str) -> None:
    """Raise ValueError naming the key path of the first entry of `table`
    that `data` lacks or holds with another JSON type.

    `table` maps key paths to names of JSON_TYPES, in the order they are
    checked.  A "*" stands for every key of an object, or entry of an
    array, present there; a key ending in "?" may be absent.  `noun`
    names the kind of file in the message: "checkpoint", "dataset".
    """

    def walk(entry, keys: tuple[str, ...], seen: tuple, kind: str) -> None:
        if not keys:
            if not JSON_TYPES[kind](entry):
                where = "".join(
                    f" entry {k}" if isinstance(k, int) else f"[{k!r}]" for k in seen[1:]
                )
                raise ValueError(f"{noun} key {seen[0]!r}{where} is not {kind}")
            return
        key, rest = keys[0], keys[1:]
        if key == "*":
            for k in range(len(entry)) if isinstance(entry, list) else entry:
                walk(entry[k], rest, seen + (k,), kind)
            return
        where = "".join(f"[{k!r}]" for k in seen)
        if not isinstance(entry, dict):
            raise ValueError(f"{noun} {where or 'file'} is not a JSON object")
        name = key.removesuffix("?")
        if name in entry:
            walk(entry[name], rest, seen + (name,), kind)
        elif name == key:
            raise ValueError(f"{noun} lacks the key {name!r}" + (f" in {where}" if where else ""))

    for keys, kind in table.items():
        walk(data, keys, (), kind)


def load_checkpoint(path: str) -> tuple[EquivariantNetwork, dict]:
    """Rebuild a checkpointed network with bit-identical forward outputs.

    Raises ValueError, the message led by the file's path, for a file
    that is not JSON or of another schema version, that lacks a key of
    CHECKPOINT_KEYS or holds one with another JSON type, whose group,
    input rep or architecture cannot be built (an unknown group kind or
    irrep, an input basis that is not a square orthogonal matrix of the
    rep's dimension, a channel count below 1, fewer than two classes), or
    whose layers do not match its architecture; a key at fault is named.
    """
    with _naming(path):
        with open(path) as f:
            data = json.load(f)
        version = data.get("schema_version") if isinstance(data, dict) else None
        if version != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"checkpoint schema_version {version!r} is not supported "
                f"(expected {CHECKPOINT_SCHEMA})"
            )
        _check_keys(data, CHECKPOINT_KEYS, "checkpoint")
        with _naming("checkpoint key 'group'"):
            G = group_from_json(data["group"])
        arch = data["architecture"]
        with _naming("checkpoint key 'architecture'['input_rep']"):
            input_rep = rep_from_json(G, arch["input_rep"])
        with _naming("checkpoint key 'architecture'"):
            net = build_network(G, input_rep, arch["hidden_channels"], arch["n_classes"], seed=0)
        entries = data["layers"]
        if len(entries) != len(net.layers):
            raise ValueError(
                f"{len(entries)} layers in checkpoint, the architecture has {len(net.layers)}"
            )
        for l, (layer, entry) in enumerate(zip(net.layers, entries)):
            if set(entry) != set(layer.coefficients):
                raise ValueError(
                    f"layer {l} holds irreps {sorted(entry)}, "
                    f"expected {sorted(layer.coefficients)}"
                )
            with _naming(f"checkpoint key 'layers' entry {l}"):
                layer.set_coefficients(entry)
        return net, data["metadata"]


@contextlib.contextmanager
def _naming(prefix: str):
    """Re-raise a ValueError or KeyError of the block as a ValueError whose
    message starts with `prefix`: nested, "file: key: message"."""
    try:
        yield
    except (ValueError, KeyError) as exc:
        text = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        raise ValueError(f"{prefix}: {text}") from None
