"""Property tests: the block-coordinate route against the dense oracle.

`forward`, `loss_and_grads` and `margins` apply a layer with
`blockwise` set through its per-irrep superblocks, and any other layer
through the dense W = Q_out S Q_in^T of `EquivariantLayer.matrix`.
Over random groups, input reps, widths and routes both must agree with
a dense reference, and training and evaluation must never build W of a
layer on the block route.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equibound.datasets import generate_synthetic, input_rep_for
from equibound.equivariant import (
    EVAL_ROWS,
    EquivariantLayer,
    MarginNotReached,
    TrainConfig,
    _cross_entropy,
    build_network,
    margins,
    train,
)
from equibound.groups import build_group
from equibound.irreps import regular_representation, stack_rep, trivial_stack
from equibound.kernels import project_coefficients

GROUPS = [("cyclic", n) for n in range(1, 17)] + [("dihedral", 4), ("quaternion", 8)]
TOL = 1e-12


@st.composite
def networks(draw):
    """A small random network: group, input rep, hidden widths, classes, weights."""
    kind, N = draw(st.sampled_from(GROUPS))
    G = build_group(kind, N)
    sources = ["regular"] if kind == "quaternion" else ["regular", "so2", "o2"]
    source = draw(st.sampled_from(sources))
    if source == "regular":
        input_rep = stack_rep(regular_representation(G), draw(st.integers(1, 3)))
    else:
        spec = generate_synthetic(
            source,
            draw(st.integers(1, 3)),
            max_frequency=draw(st.integers(1, 4)),
            seed=draw(st.integers(0, 1000)),
        )
        input_rep = input_rep_for(spec, G)
    channels = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    n_classes = draw(st.integers(2, 3))
    net = build_network(G, input_rep, channels, n_classes, seed=draw(st.integers(0, 1000)))
    routes = draw(st.lists(st.booleans(), min_size=net.depth, max_size=net.depth))
    for layer, blockwise in zip(net.layers, routes):
        layer.blockwise = blockwise
    return net, draw(st.integers(0, 1000))


def test_route_follows_layer_size():
    G = build_group("cyclic", 8)
    reg = regular_representation(G)
    wide = EquivariantLayer(stack_rep(reg, 256), stack_rep(reg, 64))
    narrow = EquivariantLayer(stack_rep(reg, 64), stack_rep(reg, 16))
    logits = EquivariantLayer(stack_rep(reg, 256), trivial_stack(G, 2))
    assert wide.blockwise  # 2048 x 512 entries > EVAL_ROWS * (2048 + 512)
    assert not narrow.blockwise
    assert not logits.blockwise


def _dense_forward(net, X):
    """Logits and per-layer (input, ReLU mask) from the dense matrices."""
    A = X
    cache = []
    last = net.depth - 1
    for l, layer in enumerate(net.layers):
        Z = A @ layer.matrix.T
        cache.append((A, Z > 0.0))
        A = Z if l == last else np.maximum(Z, 0.0)
    return A, cache


def _dense_grads(net, X, y):
    """Cross-entropy gradients by backpropagation through the dense W."""
    logits, cache = _dense_forward(net, X)
    loss, dZ = _cross_entropy(logits, y)
    grads = []
    for l in range(net.depth - 1, -1, -1):
        layer = net.layers[l]
        gout = layer.out_rep.to_block(dZ)
        gin = layer.in_rep.to_block(cache[l][0])
        grads.append(
            {
                b.irrep_id: project_coefficients(
                    gout[:, b.out_cols].T @ gin[:, b.in_cols], b.basis
                )
                for b in layer.shared
            }
        )
        if l > 0:
            dZ = (dZ @ layer.matrix) * cache[l - 1][1]
    grads.reverse()
    return loss, grads


def _batch(net, seed, rows):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, net.input_rep.dim))
    y = rng.integers(0, net.n_classes, rows)
    return X, y


@settings(max_examples=60, deadline=None, derandomize=True)
@given(networks(), st.integers(1, 40))
def test_forward_matches_dense_matrices(case, rows):
    net, seed = case
    X, _ = _batch(net, seed, rows)
    expected, _ = _dense_forward(net, X)
    np.testing.assert_allclose(net.forward(X), expected, rtol=0, atol=TOL)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(networks(), st.integers(1, 40))
def test_gradients_match_dense_backprop(case, rows):
    net, seed = case
    X, y = _batch(net, seed, rows)
    loss, grads = net.loss_and_grads(X, y)
    expected_loss, expected = _dense_grads(net, X, y)
    assert abs(loss - expected_loss) <= TOL
    for got, want in zip(grads, expected):
        assert got.keys() == want.keys()
        for pid in want:
            np.testing.assert_allclose(got[pid], want[pid], rtol=0, atol=TOL)


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(networks())
def test_train_and_margins_never_densify_block_layers(case):
    net, seed = case
    X, y = _batch(net, seed, EVAL_ROWS + 7)
    expected, _ = _dense_forward(net, X)

    dense = EquivariantLayer.matrix

    def dense_read(layer):
        assert not layer.blockwise, "a block-route layer built its dense matrix"
        return dense.fget(layer)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EquivariantLayer, "matrix", property(dense_read))
        got = margins(net, X, y)
        cfg = TrainConfig(gamma=1e6, max_epochs=2, batch_size=64, seed=seed)
        with pytest.raises(MarginNotReached):
            train(net, X, y, cfg)
        margins(net, X, y)

    rows = np.arange(len(y))
    rest = expected.copy()
    rest[rows, y] = -np.inf
    np.testing.assert_allclose(
        got, expected[rows, y] - rest.max(axis=1), rtol=0, atol=2 * TOL
    )
