"""Property tests: the block-coordinate route against the dense oracle.

`forward`, `loss_and_grads` and `margins` apply a layer with
`blockwise` set through its per-irrep superblocks, and any other layer
through the dense W = Q_out S Q_in^T of `EquivariantLayer.matrix`; a
layer's `backward` goes back the same way.  Over random groups, input
reps, widths and routes both must agree with a dense reference, and
training and evaluation must never build W of a layer on the block
route.  The routes that the cost rule picks are
pinned for the benchmark workloads' networks, and `forward` must run
many rows in blocks of EVAL_ROWS, with a peak memory that does not grow
with their number.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equibound.datasets import generate_synthetic, input_rep_for
from equibound.equivariant import (
    BASIS_CHANGE_COST,
    EVAL_ROWS,
    EquivariantLayer,
    MarginNotReached,
    TrainConfig,
    _cross_entropy,
    build_network,
    channels_for_width,
    margins,
    train,
)
from equibound.groups import build_group
from equibound.irreps import regular_representation, stack_rep
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


def _net_for(symmetry, size, max_frequency, group, widths):
    """The network a benchmark workload or acceptance test builds (routes
    depend on the reps alone, so any seed gives the same ones)."""
    spec = generate_synthetic(symmetry, size, max_frequency=max_frequency, seed=0)
    G = build_group(*group)
    channels = [channels_for_width(G, w) for w in widths]
    return build_network(G, input_rep_for(spec, G), channels, 2, seed=0)


D, B = "dense", "block"


@pytest.mark.parametrize(
    "symmetry, size, max_frequency, group, widths, routes",
    [
        # C1's one superblock is all of W, so nothing is skipped at any
        # width and every C1 layer stays dense.  Every other hidden layer
        # skips at least 102 times the entries of its basis changes per
        # row (640 times for c8_wide's 2048 -> 512), the thin input and
        # logit layers at most 29 times.
        pytest.param("so2", 6, 6, ("cyclic", 8), (2048, 512), (D, B, D), id="c8_wide"),
        pytest.param("so2", 6, 6, ("cyclic", 1), (2048, 512), (D, D, D), id="c1_wide"),
        pytest.param("so2", 6, 6, ("cyclic", 1), (512, 128), (D, D, D), id="grid-C1"),
        pytest.param("so2", 6, 6, ("cyclic", 2), (512, 128), (D, B, D), id="grid-C2"),
        pytest.param("so2", 6, 6, ("cyclic", 4), (512, 128), (D, B, D), id="grid-C4"),
        pytest.param("so2", 6, 6, ("cyclic", 8), (512, 128), (D, B, D), id="grid-C8"),
        pytest.param("so2", 6, 6, ("cyclic", 16), (512, 128), (D, B, D), id="grid-C16"),
        pytest.param("o2", 6, 3, ("dihedral", 4), (512, 128), (D, B, D), id="grid-D4"),
        pytest.param("so2", 6, 3, ("cyclic", 8), (1024, 256), (D, B, D), id="test_09-C8"),
    ],
)
def test_route_follows_layer_cost(symmetry, size, max_frequency, group, widths, routes):
    net = _net_for(symmetry, size, max_frequency, group, widths)
    assert tuple(B if layer.blockwise else D for layer in net.layers) == routes


def test_route_threshold_at_256_by_64():
    """C2's 256 -> 64 layer skips 2 * 8192 products per row against 320
    basis-change entries, 51.2 times, just above BASIS_CHANGE_COST; C1's
    skips none."""
    assert BASIS_CHANGE_COST == 50
    for n, blockwise in ((1, False), (2, True)):
        reg = regular_representation(build_group("cyclic", n))
        layer = EquivariantLayer(stack_rep(reg, 256 // n), stack_rep(reg, 64 // n))
        assert layer.blockwise is blockwise


def test_c1_matrix_is_a_view_of_the_coefficients():
    """A C1 layer's bases are the identity and its one superblock spans
    all of W, so `block_matrix()` and `matrix` are its coefficients,
    before and after a train epoch."""
    net = _net_for("so2", 6, 6, ("cyclic", 1), (64, 16))
    for layer in net.layers:
        coef = layer.coefficients["triv"]
        assert np.shares_memory(layer.block_matrix(), coef)
        assert np.shares_memory(layer.matrix, coef)
    X, y = _batch(net, 0, 100)
    with pytest.raises(MarginNotReached):
        train(net, X, y, TrainConfig(gamma=1e6, max_epochs=1, batch_size=32, seed=0))
    for layer in net.layers:
        coef = layer.coefficients["triv"]
        assert np.shares_memory(layer.matrix, coef)
        assert layer.matrix.tobytes() == coef[:, :, 0].tobytes()


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


def _refuse(*args, **kwargs):
    raise AssertionError("the first layer's backward formed an input gradient")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(networks(), st.integers(1, 40))
def test_layer_backward_matches_dense_reference(case, rows):
    """On either route, a layer's `backward` gives the projected blocks of
    dZ^T A in block coordinates and dZ W; with `input_grad` false (the
    first layer) it gives the same gradients and forms no dZ W."""
    net, seed = case
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        A = rng.standard_normal((rows, layer.in_rep.dim))
        dZ = rng.standard_normal((rows, layer.out_rep.dim)) / rows
        # Q_out^T (dZ^T A) Q_in; `to_block` maps rows X to X Q.
        S = layer.out_rep.to_block(layer.in_rep.to_block(dZ.T @ A).T).T
        want = {
            b.irrep_id: project_coefficients(S[b.out_cols, b.in_cols], b.basis)
            for b in layer.shared
        }
        for blockwise in (False, True):
            layer.blockwise = blockwise
            saved, _ = layer.apply(A)
            grads, dA = layer.backward(saved, dZ)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(EquivariantLayer, "matrix", property(_refuse))
                mp.setattr(layer, "_superblock_products", _refuse)
                first, none = layer.backward(saved, dZ, input_grad=False)
            assert none is None
            for got in (grads, first):
                assert got.keys() == want.keys()
                for pid in want:
                    np.testing.assert_allclose(got[pid], want[pid], rtol=0, atol=TOL)
            np.testing.assert_allclose(dA, dZ @ layer.matrix, rtol=0, atol=TOL)


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


def _blocked_case(rows):
    """The grid's C8 net (block route in the middle) and `rows` inputs."""
    net = _net_for("so2", 6, 6, ("cyclic", 8), (512, 128))
    assert [layer.blockwise for layer in net.layers] == [False, True, False]
    return net, *_batch(net, 3, rows)


def test_forward_runs_in_blocks_of_eval_rows():
    net, X, _ = _blocked_case(3 * EVAL_ROWS + 7)
    got = net.forward(X)
    blocks = [net.forward(X[s : s + EVAL_ROWS]) for s in range(0, len(X), EVAL_ROWS)]
    assert [len(b) for b in blocks] == [EVAL_ROWS] * 3 + [7]
    assert got.tobytes() == np.concatenate(blocks).tobytes()
    expected, _ = _dense_forward(net, X)
    np.testing.assert_allclose(got, expected, rtol=0, atol=TOL)


def test_margins_are_the_blocked_forward_margins():
    net, X, y = _blocked_case(3 * EVAL_ROWS + 7)
    logits = net.forward(X)
    rows = np.arange(len(y))
    true = logits[rows, y]
    logits[rows, y] = -np.inf
    assert margins(net, X, y).tobytes() == (true - logits.max(axis=1)).tobytes()


def _forward_peak(net, X) -> int:
    """Peak bytes traced during one forward pass (caches already filled)."""
    tracemalloc.start()
    try:
        net.forward(X)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_peak_memory_does_not_grow_with_rows():
    net, X, _ = _blocked_case(16 * EVAL_ROWS)
    net.forward(X[:1])  # builds the superblocks and dense matrices
    small = _forward_peak(net, X[: 2 * EVAL_ROWS])
    large = _forward_peak(net, X)
    # Only the logits grow: 14 more blocks of EVAL_ROWS rows and 2 classes.
    # One block's hidden activations alone are 256 x 512 doubles (1 MiB).
    assert large - small <= 14 * EVAL_ROWS * net.n_classes * 8 + 65536
