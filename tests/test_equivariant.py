"""Layer/network equivariance, gradients, training, and checkpoints."""

import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from equibound import equivariant
from equibound.equivariant import (
    EquivariantLayer,
    EquivariantNetwork,
    MarginNotReached,
    TrainConfig,
    TrainingDiverged,
    build_network,
    channels_for_width,
    empirical_margin_loss,
    load_checkpoint,
    margins,
    save_checkpoint,
    train,
)
from equibound.groups import build_group
from equibound.irreps import (
    fourier_transform,
    group_circulant,
    intertwiner_basis,
    irreps_of,
    regular_representation,
    restricted_frequency_rep,
    shared_irreps,
    stack_rep,
    trivial_stack,
)


def _small_net(kind="cyclic", N=3, channels=(3, 2), seed=0):
    G = build_group(kind, N)
    if kind == "quaternion":
        inp = regular_representation(G)
    else:
        inp = restricted_frequency_rep(G, 1, kind == "dihedral")
    return G, build_network(G, inp, list(channels), 2, seed=seed)


# ------------------------------------------------------------------- layers


def test_layer_shares_only_common_irreps():
    G = build_group("cyclic", 4)
    in_rep = restricted_frequency_rep(G, 1, False)  # freq:1 only
    out_rep = stack_rep(regular_representation(G), 2)
    layer = EquivariantLayer(in_rep, out_rep)
    assert set(layer.coefficients) == {"freq:1"}
    assert layer.coefficients["freq:1"].shape == (2, 1, 2)  # m_out, m_in, c


@pytest.mark.parametrize("kind,N", [("cyclic", 1), ("cyclic", 6), ("dihedral", 4), ("quaternion", 8)])
def test_layer_shared_is_the_shared_irreps_record(kind, N):
    """Every layer reads the one SharedIrrep table, and each record's basis is
    the irrep's intertwiner basis."""
    G, net = _small_net(kind, N)
    for layer in net.layers:
        assert layer.shared == shared_irreps(layer.in_rep, layer.out_rep)
        assert list(layer.coefficients) == [b.irrep_id for b in layer.shared]
        for b in layer.shared:
            assert b.basis is intertwiner_basis(b.psi)
            assert (b.irrep_id, b.dim) == (b.psi.id, b.psi.dim)
            assert b.in_cols == slice(b.in_offset, b.in_offset + b.m_in * b.dim)
            assert b.out_cols == slice(b.out_offset, b.out_offset + b.m_out * b.dim)
            assert layer.coefficients[b.irrep_id].shape == (b.m_out, b.m_in, len(b.basis))


def test_layer_equivariance_random_coefficients():
    rng = np.random.default_rng(0)
    for kind, N in (("cyclic", 5), ("dihedral", 4), ("quaternion", 8)):
        G = build_group(kind, N)
        in_rep = stack_rep(regular_representation(G), 2)
        out_rep = stack_rep(regular_representation(G), 3)
        layer = EquivariantLayer(in_rep, out_rep)
        layer.set_coefficients(
            {pid: rng.standard_normal(co.shape) for pid, co in layer.coefficients.items()}
        )
        W = layer.matrix
        for g in range(G.order):
            np.testing.assert_allclose(
                W @ in_rep.rho(g), out_rep.rho(g) @ W, atol=1e-10
            )


def test_layer_matrix_cache_dirty_flag():
    """A dense-route layer keeps its W until the coefficients change."""
    G, net = _small_net()
    layer = net.layers[0]
    assert not layer.blockwise
    W1 = layer.matrix
    assert layer.matrix is W1  # cached object, no rebuild
    pid = next(iter(layer.coefficients))
    co = layer.coefficients[pid].copy()
    co += 1.0
    layer.set_coefficients({pid: co})
    W2 = layer.matrix
    assert W2 is not W1
    assert not np.array_equal(W1, W2)


def _c8_block_layer():
    """C8's 2048 -> 512 regular-stack layer, random coefficients, superblocks built."""
    G = build_group("cyclic", 8)
    reg = regular_representation(G)
    layer = EquivariantLayer(stack_rep(reg, 256), stack_rep(reg, 64))
    rng = np.random.default_rng(5)
    layer.set_coefficients(
        {pid: rng.standard_normal(co.shape) for pid, co in layer.coefficients.items()}
    )
    layer.superblocks()
    return layer


def test_block_route_matrix_is_built_on_every_read():
    """A block-route W is an oracle build: each read is a fresh array with
    the dense formula's values, and none is kept on the layer."""
    layer = _c8_block_layer()
    assert layer.blockwise
    S = layer.block_matrix()
    expected = layer.out_rep.from_block(layer.in_rep.from_block(S).T).T
    del S
    W1 = layer.matrix
    W2 = layer.matrix
    assert W1 is not W2 and not np.shares_memory(W1, W2)
    assert np.array_equal(W1, expected) and np.array_equal(W2, expected)
    assert layer._matrix is None


def test_block_route_matrix_holds_one_temporary():
    """Building a block-route W keeps at most one W-sized array beside the
    result: the block matrix is dropped before W is formed."""
    layer = _c8_block_layer()
    tracemalloc.start()
    try:
        W = layer.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * W.nbytes + 2**20


def test_superblock_cache_follows_coefficients():
    G, net = _small_net()
    layer = net.layers[1]
    blocks = layer.superblocks()
    assert layer.superblocks() is blocks  # cached, no re-expansion
    pid = next(iter(layer.coefficients))
    # The trivial irrep's basis is [[1]], so its block is a view of the
    # coefficients: keep the old values to compare against.
    before = blocks[pid].copy()
    layer.coefficients[pid] += 1.0
    layer.mark_dirty()
    again = layer.superblocks()
    assert again is not blocks
    assert not np.array_equal(again[pid], before)
    np.testing.assert_array_equal(again[pid], before + 1.0)
    layer.set_coefficients({pid: layer.coefficients[pid] * 2.0})
    assert layer.superblocks() is not again


def test_materialize_regular_to_regular_is_group_circulant():
    """One regular->regular channel: W is the circulant of its filter.

    The layer's matrix commutes with the regular action, so it must be
    a group circulant; entry W[a, b] = w(a^{-1} b), so the filter is the
    identity row W[0, :].
    """
    G = build_group("dihedral", 3)
    reg = regular_representation(G)
    layer = EquivariantLayer(reg, reg)
    rng = np.random.default_rng(1)
    layer.set_coefficients(
        {pid: rng.standard_normal(co.shape) for pid, co in layer.coefficients.items()}
    )
    W = layer.matrix
    w = W[0, :]
    np.testing.assert_allclose(W, group_circulant(G, w), atol=1e-10)


def test_filter_fourier_matches_layer_coefficients():
    """The circulant filter's Fourier blocks live on the layer's basis.

    For a regular->regular layer over a group with only real-type
    irreps, the coefficient of each irrep is a 1x1x1 block equal (up to
    the catalog convention) to the filter transform; check the dihedral
    case where all multiplicities stay small.
    """
    G = build_group("cyclic", 4)
    reg = regular_representation(G)
    layer = EquivariantLayer(reg, reg)
    rng = np.random.default_rng(2)
    layer.set_coefficients(
        {pid: rng.standard_normal(co.shape) for pid, co in layer.coefficients.items()}
    )
    w = layer.matrix[:, 0]
    f = fourier_transform(G, w)
    # trivial and sign blocks are scalars and must match exactly
    assert abs(f["triv"][0, 0] - layer.coefficients["triv"][0, 0, 0]) < 1e-10
    assert abs(f["sign"][0, 0] - layer.coefficients["sign"][0, 0, 0]) < 1e-10


def test_set_coefficients_validation():
    G, net = _small_net()
    layer = net.layers[0]
    with pytest.raises(KeyError):
        layer.set_coefficients({"nope": np.zeros((1, 1, 1))})
    pid = next(iter(layer.coefficients))
    with pytest.raises(ValueError):
        layer.set_coefficients({pid: np.zeros((9, 9, 9))})


# ------------------------------------------------------------------ networks


@pytest.mark.parametrize("kind,N", [("cyclic", 3), ("dihedral", 4), ("quaternion", 8)])
def test_network_invariance(kind, N):
    G, net = _small_net(kind, N)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, net.input_rep.dim))
    base = net.forward(X)
    for g in range(G.order):
        acted = X @ net.input_rep.rho(g).T
        np.testing.assert_allclose(net.forward(acted), base, atol=1e-8)


def test_forward_refuses_non_2d_input(monkeypatch):
    """A single vector, or a 3D array whose last axis has the input width,
    is refused before any layer runs."""
    G, net = _small_net()
    monkeypatch.setattr(net, "_run", lambda *a: pytest.fail("a layer ran"))
    dim = net.input_rep.dim
    for X, ndim in ((np.zeros(dim), 1), (np.zeros((3, 5, dim)), 3)):
        with pytest.raises(ValueError, match=f"need a 2D batch of rows, got a {ndim}D array"):
            net.forward(X)


def test_gradients_match_finite_differences():
    for kind, N in (("cyclic", 3), ("dihedral", 4), ("quaternion", 8)):
        G, net = _small_net(kind, N, channels=(2, 2), seed=1)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, net.input_rep.dim))
        y = rng.integers(0, 2, 6)
        loss, grads = net.loss_and_grads(X, y)
        step = 1e-5
        for l, layer in enumerate(net.layers):
            for pid, co in layer.coefficients.items():
                flat = co.reshape(-1)
                for idx in range(0, flat.size, max(1, flat.size // 5)):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    layer.mark_dirty()
                    lp, _ = net.loss_and_grads(X, y)
                    flat[idx] = orig - step
                    layer.mark_dirty()
                    lm, _ = net.loss_and_grads(X, y)
                    flat[idx] = orig
                    layer.mark_dirty()
                    fd = (lp - lm) / (2 * step)
                    an = grads[l][pid].reshape(-1)[idx]
                    assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-6)


@pytest.mark.parametrize("kind,N,channels", [("cyclic", 1, (6, 4)), ("cyclic", 8, (32, 32))])
def test_backward_pass_drops_each_layers_saved_input(kind, N, channels, monkeypatch):
    """Once the backward pass moves below a layer, nothing references the
    input that layer saved: the `saved` its `apply` returns, which is the
    rows it was applied to on the dense route and those rows in block
    coordinates on the block route (the C8 32x32 hidden layer)."""
    G, net = _small_net(kind, N, channels)
    saved = {}
    for l, layer in enumerate(net.layers):

        def apply(A, l=l, original=layer.apply):
            kept, Z = original(A)
            saved[l] = weakref.ref(kept)
            return kept, Z

        monkeypatch.setattr(layer, "apply", apply)
    # project_coefficients runs once per shared irrep, last layer first.
    order = [l for l in reversed(range(net.depth)) for _ in net.layers[l].shared]
    alive_above = []
    project = equivariant.project_coefficients

    def watched(product, basis):
        l = order[len(alive_above)]
        alive_above.append([k for k, ref in saved.items() if k > l and ref() is not None])
        return project(product, basis)

    monkeypatch.setattr(equivariant, "project_coefficients", watched)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((16, net.input_rep.dim))
    net.loss_and_grads(X, rng.integers(0, 2, 16))
    assert set(saved) - {0}
    assert alive_above == [[]] * len(order)


@pytest.mark.parametrize("kind,N,channels", [("cyclic", 1, (6, 4)), ("cyclic", 8, (32, 32))])
def test_backward_drops_the_saved_input_before_forming_dZ_W(kind, N, channels, monkeypatch):
    """`loss_and_grads` hands each layer's `backward` the only reference
    to that layer's saved input, and `backward` drops it before it forms
    dZ W: through W on C1's dense route, through the superblocks on the
    block route (the C8 32x32 hidden layer)."""
    G, net = _small_net(kind, N, channels)
    saved, alive = {}, {}
    backward = []
    for l, layer in enumerate(net.layers):

        def apply(A, l=l, original=layer.apply):
            kept, Z = original(A)
            saved[l] = weakref.ref(kept)
            return kept, Z

        def products(V, back=False, l=l, original=layer._superblock_products):
            if back:
                alive[l] = saved[l]() is not None
            return original(V, back)

        monkeypatch.setattr(layer, "apply", apply)
        monkeypatch.setattr(layer, "_superblock_products", products)
    dense = EquivariantLayer.matrix

    def matrix(layer):
        if backward:
            l = net.layers.index(layer)
            alive[l] = saved[l]() is not None
        return dense.fget(layer)

    cross_entropy = equivariant._cross_entropy

    def start_backward(logits, y):
        backward.append(True)
        return cross_entropy(logits, y)

    monkeypatch.setattr(EquivariantLayer, "matrix", property(matrix))
    monkeypatch.setattr(equivariant, "_cross_entropy", start_backward)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((16, net.input_rep.dim))
    net.loss_and_grads(X, rng.integers(0, 2, 16))
    assert alive == {l: False for l in range(1, net.depth)}


def test_build_network_seed_determinism():
    G, net1 = _small_net(seed=42)
    _, net2 = _small_net(seed=42)
    _, net3 = _small_net(seed=43)
    for l1, l2 in zip(net1.layers, net2.layers):
        for pid in l1.coefficients:
            np.testing.assert_array_equal(l1.coefficients[pid], l2.coefficients[pid])
    diff = any(
        not np.array_equal(l1.coefficients[pid], l3.coefficients[pid])
        for l1, l3 in zip(net1.layers, net3.layers)
        for pid in l1.coefficients
    )
    assert diff


def test_build_network_validation():
    G = build_group("cyclic", 4)
    inp = restricted_frequency_rep(G, 1, False)
    with pytest.raises(ValueError):
        build_network(G, inp, [], 2)
    with pytest.raises(ValueError):
        build_network(G, inp, [0, 2], 2)
    with pytest.raises(ValueError):
        build_network(G, inp, [2], 1)
    H = build_group("cyclic", 5)
    with pytest.raises(ValueError):
        build_network(H, inp, [2], 2)


def test_channels_for_width():
    G = build_group("cyclic", 8)
    assert channels_for_width(G, 512) == 64
    assert channels_for_width(G, 4) == 1  # never rounds to zero
    G1 = build_group("cyclic", 1)
    assert channels_for_width(G1, 512) == 512


def test_network_reps_structure():
    G = build_group("cyclic", 4)
    inp = restricted_frequency_rep(G, 1, False)
    net = build_network(G, inp, [8, 4], 2, seed=0)
    dims = [r.dim for r in net.reps]
    assert dims == [2, 32, 16, 2]
    assert net.reps[-1].blocks == (("triv", 2),)
    assert net.depth == 3


def test_network_is_read_from_its_layers():
    """Group, hidden channels and class count come from the chained reps."""
    G = build_group("dihedral", 4)
    net = build_network(G, restricted_frequency_rep(G, 1, True), [3, 1, 2], 3, seed=0)
    assert net.group is G
    assert net.hidden_channels == (3, 1, 2)
    assert net.n_classes == 3
    again = EquivariantNetwork(net.layers)
    assert again.group is G and again.hidden_channels == (3, 1, 2) and again.n_classes == 3


def test_network_rejects_layers_that_do_not_chain():
    G = build_group("cyclic", 4)
    reg = regular_representation(G)
    a = EquivariantLayer(reg, stack_rep(reg, 2))
    with pytest.raises(ValueError, match="layer 1's input rep"):
        # An equal but distinct rep does not chain: layers share rep objects.
        EquivariantNetwork([a, EquivariantLayer(stack_rep(reg, 2), trivial_stack(G, 2))])
    with pytest.raises(ValueError, match="layer 1's input rep"):
        EquivariantNetwork([a, EquivariantLayer(reg, trivial_stack(G, 2))])
    with pytest.raises(ValueError):
        EquivariantNetwork([])


# ------------------------------------------------------------ margins, loss


def test_margins_two_class_oracle():
    G, net = _small_net()
    X = np.eye(net.input_rep.dim)[:2]
    logits = net.forward(X)
    y = np.array([0, 1])
    expected = np.array(
        [logits[0, 0] - logits[0, 1], logits[1, 1] - logits[1, 0]]
    )
    np.testing.assert_allclose(margins(net, X, y), expected, atol=1e-12)


def test_margins_refuse_an_empty_set():
    G, net = _small_net()
    X = np.empty((0, net.input_rep.dim))
    with pytest.raises(ValueError, match="at least one sample"):
        margins(net, X, np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError, match="at least one sample"):
        empirical_margin_loss(net, X, np.empty(0, dtype=np.int64), 0.0)


def test_empirical_margin_loss_thresholds():
    G, net = _small_net()
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50, net.input_rep.dim))
    y = rng.integers(0, 2, 50)
    mg = margins(net, X, y)
    assert empirical_margin_loss(net, X, y, 0.0) == np.mean(mg <= 0.0)
    big = float(np.max(np.abs(mg))) + 1.0
    assert empirical_margin_loss(net, X, y, big) == 1.0
    with pytest.raises(ValueError):
        empirical_margin_loss(net, X, y, -1.0)


def _counting_forward(monkeypatch) -> list[int]:
    """Record the row count of every EquivariantNetwork.forward call."""
    rows = []
    plain = EquivariantNetwork.forward

    def forward(self, X):
        rows.append(np.shape(X)[0])
        return plain(self, X)

    monkeypatch.setattr(EquivariantNetwork, "forward", forward)
    return rows


def _memo_case():
    """A net, a twin with the same coefficients, and a set of 300 rows."""
    _, net = _small_net(seed=6)
    _, twin = _small_net(seed=6)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((300, net.input_rep.dim))
    y = rng.integers(0, 2, 300)
    return net, twin, X, y


def test_margins_memo_skips_the_repeated_pass(monkeypatch):
    net, twin, X, y = _memo_case()
    expected = margins(twin, X, y)
    rows = _counting_forward(monkeypatch)
    first = margins(net, X, y)
    second = margins(net, X, y)
    assert rows == [300]  # one pass; `forward` runs it in blocks
    assert first.tobytes() == expected.tobytes()
    assert second.tobytes() == expected.tobytes()
    first[:] = 7.0
    second[:] = 7.0
    assert margins(net, X, y).tobytes() == expected.tobytes()
    assert empirical_margin_loss(net, X, y, 0.0) == np.mean(expected <= 0.0)
    assert rows == [300]


@pytest.mark.parametrize(
    "change",
    ["mark_dirty", "set_coefficients", "edit_X", "other_y", "fewer_rows"],
)
def test_margins_memo_misses_after_a_change(change, monkeypatch):
    """Any change of weights or data runs the forward pass again."""
    net, twin, X, y = _memo_case()
    margins(net, X, y)
    if change == "mark_dirty":
        net.layers[1].mark_dirty()
    elif change == "set_coefficients":
        for model in (net, twin):
            layer = model.layers[0]
            pid = next(iter(layer.coefficients))
            layer.set_coefficients({pid: layer.coefficients[pid] * 2.0})
    elif change == "edit_X":
        X[3, 0] += 1.0
    elif change == "other_y":
        y = 1 - y
    else:
        X, y = X[:200], y[:200]
    rows = _counting_forward(monkeypatch)
    got = margins(net, X, y)
    assert sum(rows) == len(X)
    assert got.tobytes() == margins(twin, X, y).tobytes()


def test_margins_memo_misses_after_a_train_epoch(monkeypatch):
    """The epoch-end check runs its pass, and leaves its margins in the memo."""
    net, twin, X, y = _memo_case()
    before = margins(net, X, y)
    cfg = TrainConfig(gamma=1e6, max_epochs=1, batch_size=64, seed=2)
    rows = _counting_forward(monkeypatch)
    with pytest.raises(MarginNotReached):
        train(net, X, y, cfg)
    assert rows == [300]
    got = margins(net, X, y)
    assert rows == [300]
    with pytest.raises(MarginNotReached):
        train(twin, X, y, cfg)
    assert got.tobytes() == margins(twin, X, y).tobytes()
    assert got.tobytes() != before.tobytes()


def test_bound_report_after_train_passes_over_the_test_set_only(monkeypatch):
    """train's last epoch leaves the training margins that the report reads."""
    from equibound import cli
    from equibound.datasets import generate_synthetic, input_rep_for, sample

    spec = generate_synthetic("so2", 2, max_frequency=1, seed=3)
    train_set = sample(spec, 300, "none", seed=4)
    test_set = sample(spec, 120, "group", seed=5)
    G = build_group("cyclic", 4)
    net = build_network(G, input_rep_for(spec, G), [3], 2, seed=6)
    cfg = TrainConfig(gamma=1e6, max_epochs=2, batch_size=64, seed=7)
    with pytest.raises(MarginNotReached):
        train(net, train_set.X, train_set.y, cfg)
    rows = _counting_forward(monkeypatch)
    report = cli._bound_report(net, train_set, test_set, 0.1, 0.5, 0.05)
    assert rows == [120]
    net.layers[0].mark_dirty()
    mg = margins(net, train_set.X, train_set.y)
    assert report.train_err == np.mean(mg <= 0.0)
    assert report.train_margin_loss == np.mean(mg <= 0.1)


# ----------------------------------------------------------------- training


def _toy_problem(seed=0):
    """Linearly separated two-cluster data on the C_4 frequency plane."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((120, 2)) * 0.1
    y = rng.integers(0, 2, 120)
    X[y == 0] += np.array([1.0, 0.0])
    X[y == 1] += np.array([-1.0, 0.0])
    return X, y


def test_train_reaches_margin_and_stops():
    G = build_group("cyclic", 1)
    inp = restricted_frequency_rep(G, 1, False)
    net = build_network(G, inp, [16], 2, seed=0)
    X, y = _toy_problem()
    cfg = TrainConfig(gamma=0.5, max_epochs=300, learning_rate=0.02, batch_size=32, seed=0)
    result = train(net, X, y, cfg)
    assert result.epochs <= 300
    assert result.margin_accuracy >= 0.99
    frac = float(np.mean(margins(net, X, y) > 0.5))
    assert frac == result.margin_accuracy
    assert [f.name for f in dataclasses.fields(result)] == ["epochs", "margin_accuracy"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.epochs = 0


def test_train_margin_not_reached():
    G = build_group("cyclic", 1)
    inp = restricted_frequency_rep(G, 1, False)
    net = build_network(G, inp, [4], 2, seed=0)
    X, y = _toy_problem()
    cfg = TrainConfig(gamma=1e6, max_epochs=3, learning_rate=0.01, batch_size=32, seed=0)
    with pytest.raises(MarginNotReached) as info:
        train(net, X, y, cfg)
    assert info.value.epochs == 3
    assert 0.0 <= info.value.achieved < 0.99


def test_train_divergence_stops_in_first_epoch():
    G = build_group("cyclic", 4)
    inp = restricted_frequency_rep(G, 1, False)
    net = build_network(G, inp, [4, 2], 2, seed=0)
    X, y = _toy_problem()
    cfg = TrainConfig(gamma=0.5, max_epochs=800, learning_rate=1e300, batch_size=32, seed=0)
    with pytest.raises(TrainingDiverged) as info:
        train(net, X, y, cfg)
    assert info.value.epoch == 1


def test_train_divergence_checks_coefficients_at_epoch_end(monkeypatch):
    """One batch per epoch: the loss stays finite, the coefficients do not.

    An infinite gradient entry makes its Adam step inf/inf = nan.
    """
    G = build_group("cyclic", 4)
    inp = restricted_frequency_rep(G, 1, False)
    net = build_network(G, inp, [4, 2], 2, seed=0)
    X, y = _toy_problem()
    exact = net.loss_and_grads

    def infinite_gradient(Xb, yb):
        loss, grads = exact(Xb, yb)
        next(iter(grads[0].values()))[0, 0, 0] = np.inf
        return loss, grads

    monkeypatch.setattr(net, "loss_and_grads", infinite_gradient)
    cfg = TrainConfig(gamma=0.5, max_epochs=800, learning_rate=0.01, batch_size=120, seed=0)
    with pytest.raises(TrainingDiverged, match="non-finite coefficients") as info:
        train(net, X, y, cfg)
    assert info.value.epoch == 1


def test_train_is_deterministic():
    X, y = _toy_problem()
    outs = []
    for _ in range(2):
        G = build_group("cyclic", 2)
        inp = restricted_frequency_rep(G, 1, False)
        net = build_network(G, inp, [8], 2, seed=3)
        cfg = TrainConfig(gamma=0.2, max_epochs=20, learning_rate=0.02, batch_size=16, seed=9)
        try:
            train(net, X, y, cfg)
        except MarginNotReached:
            pass
        outs.append(net.forward(X))
    np.testing.assert_array_equal(outs[0], outs[1])


def test_train_drops_each_steps_gradients_before_the_next(monkeypatch):
    """No gradient array of step k is alive when step k+1's
    loss_and_grads starts, within an epoch or across one."""
    G, net = _small_net("cyclic", 4, (3, 2))
    X, y = _toy_problem()
    previous = []
    alive = []
    original = net.loss_and_grads

    def watched(Xb, yb):
        alive.append(sum(ref() is not None for ref in previous))
        previous.clear()
        loss, grads = original(Xb, yb)
        previous.extend(weakref.ref(g) for gdict in grads for g in gdict.values())
        return loss, grads

    monkeypatch.setattr(net, "loss_and_grads", watched)
    cfg = TrainConfig(gamma=1e6, max_epochs=2, learning_rate=0.01, batch_size=32, seed=0)
    with pytest.raises(MarginNotReached):
        train(net, X, y, cfg)
    assert alive == [0] * 8


def test_train_config_validation():
    for bad in (
        {"gamma": 0.0},
        {"gamma": -2.0},
        {"gamma": np.nan},
        {"gamma": np.inf},
        {"batch_size": 0},
        {"batch_size": -5},
        {"max_epochs": 0},
        {"max_epochs": -1},
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"learning_rate": np.inf},
        {"learning_rate": np.nan},
    ):
        field = next(iter(bad))
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{"gamma": 1.0, **bad})
    # Frozen, so no assignment gets round these checks.
    with pytest.raises(dataclasses.FrozenInstanceError):
        TrainConfig(gamma=1.0).max_epochs = 0


def test_train_config_accepts_edge_values():
    cfg = TrainConfig(gamma=1.0, max_epochs=1, batch_size=1, learning_rate=1e-12)
    assert (cfg.max_epochs, cfg.batch_size, cfg.learning_rate) == (1, 1, 1e-12)


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize(
    "kind,N,channels",
    [("cyclic", 1, (6, 3)), ("cyclic", 8, (2, 1)), ("dihedral", 4, (2, 1)), ("quaternion", 8, (2, 1))],
)
def test_adam_step_matches_reference_expression(kind, N, channels, chunk, monkeypatch):
    """train's in-place Adam gives exactly the coefficients of the plain expression.

    With a 5-element chunk every array is updated over several chunks.
    """
    if chunk is not None:
        monkeypatch.setattr(equivariant, "ADAM_CHUNK", chunk)
    _, net = _small_net(kind, N, channels=channels, seed=4)
    _, ref = _small_net(kind, N, channels=channels, seed=4)
    rng = np.random.default_rng(12)
    X = rng.standard_normal((40, net.input_rep.dim))
    y = rng.integers(0, 2, 40)
    cfg = TrainConfig(gamma=1e6, max_epochs=2, learning_rate=0.05, batch_size=16, seed=3)
    with pytest.raises(MarginNotReached):
        train(net, X, y, cfg)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    moments = [{pid: (np.zeros_like(a), np.zeros_like(a)) for pid, a in layer.coefficients.items()}
               for layer in ref.layers]
    order_rng = np.random.default_rng(cfg.seed)
    step = 0
    for _ in range(cfg.max_epochs):
        order = order_rng.permutation(len(X))
        for start in range(0, len(X), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, grads = ref.loss_and_grads(X[idx], y[idx])
            step += 1
            corr1, corr2 = 1.0 - beta1**step, 1.0 - beta2**step
            for layer, moment, gdict in zip(ref.layers, moments, grads):
                for pid, g in gdict.items():
                    m1, m2 = moment[pid]
                    m1 *= beta1
                    m1 += (1.0 - beta1) * g
                    m2 *= beta2
                    m2 += (1.0 - beta2) * (g * g)
                    layer.coefficients[pid] -= cfg.learning_rate * (
                        (m1 / corr1) / (np.sqrt(m2 / corr2) + eps)
                    )
                layer.mark_dirty()
    assert step == 6
    for layer, expected in zip(net.layers, ref.layers):
        for pid, coef in layer.coefficients.items():
            assert np.array_equal(coef, expected.coefficients[pid]), (kind, pid)


def test_train_rejects_bad_labels():
    G, net = _small_net()
    X = np.zeros((4, net.input_rep.dim))
    cfg = TrainConfig(gamma=1.0, max_epochs=1)
    with pytest.raises(ValueError):
        train(net, X, np.array([0, 1, 2, 0]), cfg)


@pytest.mark.parametrize(
    "labels", [[0, 1, 1], [0, 1, 1, 0, 1], [0.0, 1.0, 1.0, 0.0]], ids=["short", "long", "float"]
)
def test_labels_must_be_one_integer_per_row(labels):
    G, net = _small_net()
    X = np.random.default_rng(0).standard_normal((4, net.input_rep.dim))
    y = np.array(labels)
    message = rf"one integer label per row of X \(4, {net.input_rep.dim}\), got {y.dtype} \({len(y)},\)"
    with pytest.raises(ValueError, match=message):
        train(net, X, y, TrainConfig(gamma=1.0, max_epochs=1))
    with pytest.raises(ValueError, match=message):
        margins(net, X, y)
    with pytest.raises(ValueError, match=message):
        empirical_margin_loss(net, X, y, 0.0)
    with pytest.raises(ValueError, match=message):
        net.loss_and_grads(X, y)


def test_input_width_must_match_input_rep():
    """Training refuses rows of the wrong width with forward's message, before any pass."""
    G, net = _small_net()
    dim = net.input_rep.dim
    X = np.zeros((4, dim + 1))
    y = np.zeros(4, dtype=np.int64)
    message = rf"input dimension {dim + 1} does not match rep dimension {dim}"
    with pytest.raises(ValueError, match=message):
        net.forward(X)
    with pytest.raises(ValueError, match=message):
        net.loss_and_grads(X, y)
    with pytest.raises(ValueError, match=message):
        train(net, X, y, TrainConfig(gamma=1.0, max_epochs=1))


def test_margins_refuse_labels_out_of_range():
    """A negative label would index the last class."""
    G, net = _small_net()
    X = np.zeros((2, net.input_rep.dim))
    for y in ([0, -1], [0, 2]):
        with pytest.raises(ValueError, match="labels out of range"):
            margins(net, X, np.array(y))
        with pytest.raises(ValueError, match="labels out of range"):
            net.loss_and_grads(X, np.array(y))


def test_training_preserves_equivariance():
    G, net = _small_net("dihedral", 3, channels=(4, 2))
    rng = np.random.default_rng(11)
    X = rng.standard_normal((64, net.input_rep.dim))
    y = rng.integers(0, 2, 64)
    cfg = TrainConfig(gamma=0.05, max_epochs=10, learning_rate=0.02, batch_size=16, seed=0)
    try:
        train(net, X, y, cfg)
    except MarginNotReached:
        pass
    base = net.forward(X)
    for g in range(G.order):
        acted = X @ net.input_rep.rho(g).T
        np.testing.assert_allclose(net.forward(acted), base, atol=1e-8)


# -------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    G, net = _small_net("dihedral", 4, channels=(3, 2), seed=5)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, net.input_rep.dim))
    y = rng.integers(0, 2, 10)
    cfg = TrainConfig(gamma=0.01, max_epochs=3, learning_rate=0.05, batch_size=4, seed=1)
    try:
        train(net, X, y, cfg)
    except MarginNotReached:
        pass
    path = tmp_path / "model.json"
    save_checkpoint(str(path), net, {"note": "test", "gamma": 0.01})
    net2, metadata = load_checkpoint(str(path))
    assert metadata["note"] == "test"
    np.testing.assert_array_equal(net.forward(X), net2.forward(X))
    for l1, l2 in zip(net.layers, net2.layers):
        for pid in l1.coefficients:
            np.testing.assert_array_equal(l1.coefficients[pid], l2.coefficients[pid])
    _assert_one_array_per_shared_irrep(path, net)


def test_checkpoint_quaternion_roundtrip(tmp_path):
    G, net = _small_net("quaternion", 8, channels=(2,), seed=7)
    path = tmp_path / "q8.json"
    save_checkpoint(str(path), net, {})
    net2, _ = load_checkpoint(str(path))
    X = np.random.default_rng(8).standard_normal((4, 8))
    np.testing.assert_array_equal(net.forward(X), net2.forward(X))
    _assert_one_array_per_shared_irrep(path, net)


def _assert_one_array_per_shared_irrep(path, net):
    """The file holds coefficients only: no reps, one array per shared irrep."""
    data = json.loads(path.read_text())
    assert set(data) == {"schema_version", "group", "architecture", "layers", "metadata"}
    assert data["schema_version"] == 3
    for layer, entry in zip(net.layers, data["layers"], strict=True):
        assert "in_rep" not in entry and "out_rep" not in entry
        assert list(entry) == [b.irrep_id for b in layer.shared]
        for pid, arr in layer.coefficients.items():
            assert np.asarray(entry[pid]).shape == arr.shape


def _saved_checkpoint(tmp_path):
    G, net = _small_net("cyclic", 4, channels=(2,), seed=3)
    path = tmp_path / "model.json"
    save_checkpoint(str(path), net, {"gamma": 0.5})
    return path, json.loads(path.read_text())


def _load_edited(path, data):
    """Load `data` written to `path`; a refusal names the file once, first."""
    path.write_text(json.dumps(data))
    try:
        return load_checkpoint(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ") and str(exc).count(str(path)) == 1, exc
        raise


def test_load_rejects_non_orthogonal_input_basis(tmp_path):
    """A D4 input basis scaled by 2 would load as another network."""
    G, net = _small_net("dihedral", 4, channels=(2,), seed=3)
    path = tmp_path / "model.json"
    save_checkpoint(str(path), net, {})
    data = json.loads(path.read_text())
    Q = data["architecture"]["input_rep"]["Q"]
    assert Q != "identity"
    data["architecture"]["input_rep"]["Q"] = [2.0 * q for q in Q]
    with pytest.raises(ValueError, match="not orthogonal"):
        _load_edited(path, data)


@pytest.mark.parametrize("version", [None, 1, 2, 4, "3"])
def test_load_rejects_unknown_schema_version(tmp_path, version):
    path, data = _saved_checkpoint(tmp_path)
    if version is None:
        del data["schema_version"]
    else:
        data["schema_version"] = version
    with pytest.raises(ValueError, match="schema_version"):
        _load_edited(path, data)


@pytest.mark.parametrize("change", [-1, 1])
def test_load_rejects_layer_count_mismatch(tmp_path, change):
    path, data = _saved_checkpoint(tmp_path)
    data["layers"] = data["layers"][:-1] if change < 0 else data["layers"] + data["layers"][-1:]
    with pytest.raises(ValueError, match="layers"):
        _load_edited(path, data)


@pytest.mark.parametrize("edit", ["missing", "extra"])
def test_load_rejects_irrep_set_mismatch(tmp_path, edit):
    """A missing irrep would otherwise keep build_network's random init."""
    path, data = _saved_checkpoint(tmp_path)
    first = data["layers"][0]
    if edit == "missing":
        del first[next(iter(first))]
    else:
        first["nope"] = [[[0.0]]]
    with pytest.raises(ValueError, match="layer 0 holds irreps"):
        _load_edited(path, data)


def test_load_rejects_wrong_shape(tmp_path):
    path, data = _saved_checkpoint(tmp_path)
    first = data["layers"][0]
    pid = next(iter(first))
    first[pid] = first[pid][:-1] if len(first[pid]) > 1 else first[pid] * 2
    with pytest.raises(ValueError, match="shape"):
        _load_edited(path, data)


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    path, _ = _saved_checkpoint(tmp_path)
    before = path.read_bytes()
    G, net = _small_net("cyclic", 4, channels=(2,), seed=4)
    with pytest.raises(TypeError):
        save_checkpoint(str(path), net, {"bad": object()})
    assert path.read_bytes() == before

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(equivariant.os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        save_checkpoint(str(path), net, {})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    net2, metadata = load_checkpoint(str(path))
    assert metadata == {"gamma": 0.5}
