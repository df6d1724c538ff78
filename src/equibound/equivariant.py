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
the oracle of the verification checks.

Training and evaluation apply a wide layer through its superblocks.  A
layer whose dense matrix holds fewer entries than EVAL_ROWS rows of its
input and output (the narrow data-input and logit layers, and small
hidden layers) is applied through W instead: rebuilding W after an
update then costs less than the two basis changes of every batch.
Gradients are formed in block coordinates on both routes.

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
superblock and dense-matrix caches require as well.

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

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field

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


# Rows per forward pass when `margins` evaluates a full set, so that its
# peak memory does not grow with the number of samples.  It is also the
# batch size against which a layer picks its route (see
# EquivariantLayer.blockwise).
EVAL_ROWS = 256

# Source of layer versions: no two weight states of any layers share one.
_VERSIONS = itertools.count()


def _products(
    rows: int, dim: int, parts: list[tuple[slice, np.ndarray, np.ndarray]]
) -> np.ndarray:
    """A (rows, dim) array holding a @ b in the columns of each (columns, a, b).

    Columns that no part covers are zero.
    """
    if len(parts) == 1 and parts[0][0] == slice(0, dim):
        return parts[0][1] @ parts[0][2]
    covered = sum(cols.stop - cols.start for cols, _, _ in parts)
    out = np.empty((rows, dim)) if covered == dim else np.zeros((rows, dim))
    for cols, a, b in parts:
        np.matmul(a, b, out=out[:, cols])
    return out


class EquivariantLayer:
    """A linear map constrained to commute with the group action.

    Parameters live in `coefficients`, a dict keyed by irrep id holding
    arrays of shape (m_out, m_in, c_psi), one per record of `shared`
    (`shared_irreps(in_rep, out_rep)`).  The superblocks they expand
    to are cached, and so is the dense `matrix` once read; call
    `mark_dirty` after mutating coefficient arrays in place.  It also
    renews `version`, which names the weight state in the network's
    margins memo (see `margins`).

    `blockwise` selects how `apply` computes A W^T: through the
    superblocks, or through the dense matrix.  It is true when W has
    more entries than EVAL_ROWS rows of input and output together, so
    that rebuilding W would cost more than the block route's basis
    changes of a batch; either route gives the same values.
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
        self.blockwise = n_in * n_out > EVAL_ROWS * (n_in + n_out)

    @property
    def group(self) -> FiniteGroup:
        return self.in_rep.group

    @property
    def param_count(self) -> int:
        return sum(a.size for a in self.coefficients.values())

    def mark_dirty(self) -> None:
        """Drop the cached superblocks and dense matrix; renew `version`."""
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
        """The layer matrix in block coordinates (zero across irreps)."""
        S = np.zeros((self.out_rep.dim, self.in_rep.dim))
        blocks = self.superblocks()
        for b in self.shared:
            S[b.out_cols, b.in_cols] = blocks[b.irrep_id]
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
        """Dense W = Q_out (block matrix) Q_in^T, cached until dirty."""
        if self._matrix is None:
            S = self.block_matrix()
            T = self.in_rep.from_block(S)
            self._matrix = self.out_rep.from_block(T.T).T
        return self._matrix

    def apply(self, A: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        """Apply the layer to batch rows A; returns (U, A W^T).

        On the block route U is A in the input's block coordinates, which
        the backward pass reuses; on the dense route it is None.
        """
        if not self.blockwise:
            return None, A @ self.matrix.T
        U = self.in_rep.to_block(A)
        blocks = self.superblocks()
        Z = _products(
            A.shape[0],
            self.out_rep.dim,
            [(b.out_cols, U[:, b.in_cols], blocks[b.irrep_id].T) for b in self.shared],
        )
        return U, self.out_rep.from_block(Z)

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
        """Logits for a batch (rows) or a single vector."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            return self.forward(X[None, :])[0]
        if X.shape[1] != self.input_rep.dim:
            raise ValueError(
                f"input dimension {X.shape[1]} does not match rep "
                f"dimension {self.input_rep.dim}"
            )
        A = X
        last = len(self.layers) - 1
        for l, layer in enumerate(self.layers):
            _, Z = layer.apply(A)
            A = Z if l == last else np.maximum(Z, 0.0, out=Z)
        return A

    def loss_and_grads(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[float, list[dict[str, np.ndarray]]]:
        """Mean cross-entropy and its gradient per coefficient array.

        Each irrep's superblock gradient is the product of the output
        gradient and the layer input, both in block coordinates,
        projected onto the intertwiner basis into the (m_out, m_in, c)
        layout of the coefficients.  The input gradient goes back the
        way the layer was applied: through the superblocks, or through W.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("need a nonempty 2D batch")
        last = len(self.layers) - 1
        inputs: list[np.ndarray] = []
        masks: list[np.ndarray] = []
        A = X
        for l, layer in enumerate(self.layers):
            U, Z = layer.apply(A)
            inputs.append(layer.in_rep.to_block(A) if U is None else U)
            if l < last:
                masks.append(Z > 0.0)
                A = np.maximum(Z, 0.0, out=Z)
            else:
                A = Z
        loss, dZ = _cross_entropy(A, y)
        grads: list[dict[str, np.ndarray]] = []
        for l in range(last, -1, -1):
            layer = self.layers[l]
            gout = layer.out_rep.to_block(dZ)
            blocks = layer.superblocks()
            gdict = {}
            back = []
            for b in layer.shared:
                go = gout[:, b.out_cols]
                gdict[b.irrep_id] = project_coefficients(
                    go.T @ inputs[l][:, b.in_cols], b.basis
                )
                back.append((b.in_cols, go, blocks[b.irrep_id]))
            grads.append(gdict)
            if l == 0:
                break
            if layer.blockwise:
                dA = _products(dZ.shape[0], layer.in_rep.dim, back)
                dA = layer.in_rep.from_block(dA)
            else:
                dA = dZ @ layer.matrix
            dZ = dA * masks[l - 1]
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
        raise ValueError("need at least one hidden layer")
    if any(c < 1 for c in hidden_channels):
        raise ValueError("channel counts must be >= 1")
    if n_classes < 2:
        raise ValueError("need at least two classes")
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


def margins(net: EquivariantNetwork, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample margin: true-class logit minus the best other logit.

    The forward pass runs over blocks of EVAL_ROWS rows.  `net` keeps
    the result of its last call, keyed by its layers' versions and a
    digest of X (as float64) and y, and a call with the same key returns
    a copy of it without a forward pass.  An in-place edit of X or y
    changes the digest; an in-place edit of the coefficients is seen
    only through `mark_dirty`, which every update in this module calls.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    versions = tuple(layer.version for layer in net.layers)
    digest = _digest(X, y)
    memo = net._margins_memo
    if memo is not None and memo[0] == versions and memo[1] == digest:
        return memo[2].copy()
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], EVAL_ROWS):
        stop = start + EVAL_ROWS
        logits = net.forward(X[start:stop])
        rows = np.arange(logits.shape[0])
        labels = y[start:stop]
        true = logits[rows, labels]
        logits[rows, labels] = -np.inf
        out[start:stop] = true - logits.max(axis=1)
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


@dataclass
class TrainConfig:
    """Optimization and stopping parameters for margin training."""

    gamma: float
    max_epochs: int = 500
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


@dataclass
class TrainResult:
    """Training trace: stopping epoch plus per-epoch diagnostics."""

    epochs: int
    margin_accuracy: float
    loss_history: list[float] = field(default_factory=list)
    margin_history: list[float] = field(default_factory=list)


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
    the coefficients are not all finite at the end of an epoch.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    m = X.shape[0]
    if m == 0:
        raise ValueError("empty training set")
    if y.min() < 0 or y.max() >= net.n_classes:
        raise ValueError("labels out of range")
    rng = np.random.default_rng(cfg.seed)
    state = _adam_state(net)
    step = 0
    result = TrainResult(epochs=0, margin_accuracy=0.0)
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(m)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, m, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = net.loss_and_grads(X[idx], y[idx])
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch, f"batch loss {loss}")
            epoch_loss += loss
            n_batches += 1
            step += 1
            corr1 = 1.0 - ADAM_BETA1**step
            corr2 = 1.0 - ADAM_BETA2**step
            for l, layer in enumerate(net.layers):
                for pid, g in grads[l].items():
                    _adam_update(
                        layer.coefficients[pid],
                        g,
                        *state[(l, pid)],
                        cfg.learning_rate,
                        corr1,
                        corr2,
                    )
                layer.mark_dirty()
        if not all(
            np.isfinite(a).all() for layer in net.layers for a in layer.coefficients.values()
        ):
            raise TrainingDiverged(epoch, "non-finite coefficients")
        frac = float(np.mean(margins(net, X, y) > cfg.gamma))
        result.epochs = epoch
        result.margin_accuracy = frac
        result.loss_history.append(epoch_loss / max(n_batches, 1))
        result.margin_history.append(frac)
        if frac >= MARGIN_TARGET:
            return result
    raise MarginNotReached(cfg.max_epochs, result.margin_accuracy)


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


def load_checkpoint(path: str) -> tuple[EquivariantNetwork, dict]:
    """Rebuild a checkpointed network with bit-identical forward outputs.

    Raises ValueError for a file of another schema version, or whose
    layers do not match the architecture it records.
    """
    with open(path) as f:
        data = json.load(f)
    version = data.get("schema_version") if isinstance(data, dict) else None
    if version != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"{path}: checkpoint schema_version {version!r} is not supported "
            f"(expected {CHECKPOINT_SCHEMA})"
        )
    G = group_from_json(data["group"])
    arch = data["architecture"]
    input_rep = rep_from_json(G, arch["input_rep"])
    net = build_network(
        G,
        input_rep,
        [int(c) for c in arch["hidden_channels"]],
        int(arch["n_classes"]),
        seed=0,
    )
    if len(data["layers"]) != len(net.layers):
        raise ValueError(
            f"{path}: {len(data['layers'])} layers in checkpoint, "
            f"the architecture has {len(net.layers)}"
        )
    for l, (layer, entry) in enumerate(zip(net.layers, data["layers"])):
        if set(entry) != set(layer.coefficients):
            raise ValueError(
                f"{path}: layer {l} holds irreps {sorted(entry)}, "
                f"expected {sorted(layer.coefficients)}"
            )
        layer.set_coefficients(entry)
    return net, data["metadata"]
