"""Synthetic dataset construction, sampling, actions, and serialization."""

import numpy as np
import pytest

from equibound.datasets import (
    generate_synthetic,
    input_rep_for,
    load_dataset,
    randomize_labels,
    sample,
    save_dataset,
)
from equibound.groups import build_group


# --------------------------------------------------------------- generation


def test_so2_spec_shape():
    spec = generate_synthetic("so2", 6, max_frequency=3, seed=0)
    assert spec.symmetry == "so2"
    assert spec.D == 6
    assert spec.frequencies == (1, 2, 3, 1, 2, 3)
    assert spec.representatives.shape[1] == 12
    assert spec.n_representatives == 32
    assert len(spec.labels) == 32
    assert set(spec.labels) <= {0, 1}


def test_so2_representatives_on_torus():
    spec = generate_synthetic("so2", 4, max_frequency=2, seed=1)
    R = spec.representatives
    assert R.shape == (8, 8)
    # each circle's coordinates have unit norm
    for u in range(4):
        norms = np.linalg.norm(R[:, 2 * u : 2 * u + 2], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # circle 0 is pinned at angle zero
    np.testing.assert_allclose(R[:, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(R[:, 1], 0.0, atol=1e-12)


def test_so2_alternative_points_are_antipodal():
    spec = generate_synthetic("so2", 3, max_frequency=1, seed=2)
    R = spec.representatives  # 4 reps over 3 circles
    # reps 0 and 1 differ exactly in circle 1, which flips to its antipode
    np.testing.assert_allclose(R[0, 2:4], -R[1, 2:4], atol=1e-12)
    np.testing.assert_allclose(R[0, 4:6], R[1, 4:6], atol=1e-12)


def test_o2_spec_shape():
    spec = generate_synthetic("o2", 5, max_frequency=2, seed=3)
    assert spec.paired
    assert spec.unit_width == 4
    assert spec.representatives.shape[1] == 20
    assert spec.n_representatives == 16
    R = spec.representatives
    # exactly one circle of each pair is occupied
    for u in range(5):
        block = R[:, 4 * u : 4 * u + 4]
        n0 = np.linalg.norm(block[:, :2], axis=1)
        n1 = np.linalg.norm(block[:, 2:], axis=1)
        np.testing.assert_allclose(np.maximum(n0, n1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.minimum(n0, n1), 0.0, atol=1e-12)


def test_discrete_cyclic_construction():
    spec = generate_synthetic("cyclic", 8, seed=4)
    assert spec.M == 8
    assert spec.D == 4
    assert spec.frequencies == (1, 2, 3, 4)
    assert spec.representatives.shape[1] == 16
    assert spec.n_representatives == 16  # 8 base + 8 rotated
    y = np.array(spec.labels)
    assert list(y[:8]) == [0] * 8
    assert list(y[8:]) == [1] * 8


def test_discrete_dihedral_construction():
    spec = generate_synthetic("dihedral", 6, seed=5)
    assert spec.D == 3
    assert spec.n_representatives == 16  # 4 * 2^(F-1)
    y = np.array(spec.labels)
    assert list(y[:4]) == [0] * 4  # base
    assert list(y[4:8]) == [1] * 4  # rotated by pi/M
    assert list(y[8:12]) == [1] * 4  # mirrored (reflection of the rotated set)
    assert list(y[12:]) == [0] * 4  # rotated and mirrored lands back in class 0


def test_discrete_labels_consistent_along_orbits():
    """No group element maps a representative onto one of the other class.

    The label function therefore extends unambiguously to the orbits
    that 'group' augmentation samples from.
    """
    for kind, M in (("cyclic", 8), ("dihedral", 6)):
        spec = generate_synthetic(kind, M, seed=6)
        G = build_group(kind, M)
        rep = input_rep_for(spec, G)
        R = spec.representatives
        y = np.array(spec.labels)
        for g in range(G.order):
            acted = R @ rep.rho(g).T
            for i in range(len(R)):
                dists = np.linalg.norm(R - acted[i], axis=1)
                close = dists < 1e-9
                assert np.all(y[close] == y[i]), (kind, g, i)


def test_discrete_class_one_is_half_step_rotation_of_class_zero():
    """Class 1 is the base set rotated by pi/M (plus mirror images for
    dihedral), so cross-class points stay separated under the group."""
    spec = generate_synthetic("cyclic", 8, seed=6)
    G = build_group("cyclic", 8)
    rep = input_rep_for(spec, G)
    R = spec.representatives
    y = np.array(spec.labels)
    half = R[:8] @ _rotation_matrix(spec, np.pi / 8).T
    np.testing.assert_allclose(half, R[8:], atol=1e-12)
    # no C_8 element maps a class-0 point near a class-1 point
    min_cross = np.inf
    for g in range(G.order):
        acted = R[y == 0] @ rep.rho(g).T
        for p in acted:
            min_cross = min(min_cross, float(np.min(np.linalg.norm(R[y == 1] - p, axis=1))))
    assert min_cross > 0.5


def _rotation_matrix(spec, theta):
    """Block rotation acting at each unit's frequency, pairs rotated per circle."""
    n = spec.representatives.shape[1]
    out = np.zeros((n, n))
    width = spec.unit_width
    for u, f in enumerate(spec.frequencies):
        c, s = np.cos(f * theta), np.sin(f * theta)
        for sub in range(width // 2):
            b = u * width + 2 * sub
            out[b : b + 2, b : b + 2] = [[c, -s], [s, c]]
    return out


def test_generate_validation():
    with pytest.raises(ValueError):
        generate_synthetic("so2", 6)  # missing max_frequency
    with pytest.raises(ValueError):
        generate_synthetic("cyclic", 8, max_frequency=3)  # not allowed
    with pytest.raises(ValueError):
        generate_synthetic("cyclic", 1)
    with pytest.raises(ValueError):
        generate_synthetic("moebius", 6, max_frequency=1)


# ----------------------------------------------------------------- sampling


def test_sample_noise_free_hits_representatives():
    spec = generate_synthetic(
        "so2", 4, max_frequency=2, seed=7, noise_sigma_tangent=0.0, noise_sigma_ambient=0.0
    )
    ds = sample(spec, 200, "none", seed=8)
    R = spec.representatives
    for i in range(len(ds)):
        np.testing.assert_array_equal(ds.X[i], R[ds.rep_index[i]])
        assert ds.y[i] == spec.labels[ds.rep_index[i]]
    assert abs(ds.B - 2.0) < 1e-12  # sqrt(D) with D=4


def test_sample_b_is_max_norm():
    spec = generate_synthetic("so2", 6, max_frequency=3, seed=9)
    ds = sample(spec, 500, "group", seed=10)
    assert ds.B == float(np.max(np.linalg.norm(ds.X, axis=1)))


def test_sample_augment_group_preserves_labels_so2():
    """Noise-free augmented samples stay on the labeled orbit."""
    spec = generate_synthetic(
        "so2", 3, max_frequency=2, seed=11, noise_sigma_tangent=0.0, noise_sigma_ambient=0.0
    )
    ds = sample(spec, 100, "group", seed=12)
    R = spec.representatives
    for i in range(len(ds)):
        rep = R[ds.rep_index[i]]
        theta = ds.angle[i]
        # rotate the representative by the recorded angle and compare
        expected = np.empty(6)
        for u, f in enumerate(spec.frequencies):
            c, s = np.cos(f * theta), np.sin(f * theta)
            x0, y0 = rep[2 * u], rep[2 * u + 1]
            expected[2 * u] = c * x0 - s * y0
            expected[2 * u + 1] = s * x0 + c * y0
        np.testing.assert_allclose(ds.X[i], expected, atol=1e-12)


def test_sample_discrete_group_angles_are_group_elements():
    spec = generate_synthetic(
        "cyclic", 8, seed=13, noise_sigma_tangent=0.0, noise_sigma_ambient=0.0
    )
    ds = sample(spec, 64, "group", seed=14)
    angles = np.unique(ds.angle)
    allowed = 2 * np.pi * np.arange(8) / 8
    for a in angles:
        assert np.min(np.abs(allowed - a)) < 1e-12


@pytest.mark.parametrize(
    "symmetry, size, max_frequency",
    [("so2", 3, 2), ("o2", 3, 2), ("cyclic", 6, None), ("dihedral", 6, None)],
)
def test_sample_group_reflects_only_o2_and_dihedral(symmetry, size, max_frequency):
    spec = generate_synthetic(symmetry, size, max_frequency=max_frequency, seed=40)
    ds = sample(spec, 200, "group", seed=41)
    drawn = set(np.unique(ds.reflect).tolist())
    assert drawn == ({0, 1} if symmetry in ("o2", "dihedral") else {0})


def test_sample_tangent_noise_stays_on_torus():
    spec = generate_synthetic(
        "so2", 5, max_frequency=2, seed=15, noise_sigma_tangent=0.2, noise_sigma_ambient=0.0
    )
    ds = sample(spec, 100, "none", seed=16)
    for u in range(5):
        norms = np.linalg.norm(ds.X[:, 2 * u : 2 * u + 2], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # In a pair, the noise moves the occupied circle and leaves the other at zero.
    spec = generate_synthetic(
        "dihedral", 10, seed=15, noise_sigma_tangent=0.2, noise_sigma_ambient=0.0
    )
    ds = sample(spec, 100, "group", seed=16)
    norms = np.sort(np.linalg.norm(ds.X.reshape(100, 5, 2, 2), axis=-1), axis=-1)
    np.testing.assert_allclose(norms, np.broadcast_to([0.0, 1.0], norms.shape), atol=1e-12)


def test_sample_determinism_and_seed_sensitivity():
    spec = generate_synthetic("o2", 4, max_frequency=2, seed=17)
    a = sample(spec, 50, "group", seed=18)
    b = sample(spec, 50, "group", seed=18)
    c = sample(spec, 50, "group", seed=19)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.X, c.X)


# ------------------------------------------------------------- random labels


def test_randomize_labels_properties():
    spec = generate_synthetic("so2", 6, max_frequency=3, seed=22)
    ds = sample(spec, 3200, "none", seed=23)
    r1 = randomize_labels(ds, seed=24)
    # features untouched, originals preserved
    np.testing.assert_array_equal(r1.X, ds.X)
    np.testing.assert_array_equal(r1.original_y, ds.y)
    # agreement is binomial around 1/2: 3 sigma at m=3200 is ~0.0265
    agree = float(np.mean(r1.y == ds.y))
    assert abs(agree - 0.5) < 3 * 0.5 / np.sqrt(3200)
    # idempotent for the same seed, original labels still the first ones
    r2 = randomize_labels(r1, seed=24)
    np.testing.assert_array_equal(r2.y, r1.y)
    np.testing.assert_array_equal(r2.original_y, ds.y)


# -------------------------------------------------------------- input reps


def test_input_rep_for_matches_ambient_dim():
    for symmetry, size, f in (("so2", 6, 3), ("o2", 4, 2)):
        spec = generate_synthetic(symmetry, size, max_frequency=f, seed=25)
        for kind, N in (("cyclic", 4), ("dihedral", 3)):
            G = build_group(kind, N)
            rep = input_rep_for(spec, G)
            assert rep.dim == spec.representatives.shape[1]
    spec = generate_synthetic("cyclic", 8, seed=26)
    G = build_group("cyclic", 8)
    assert input_rep_for(spec, G).dim == 16


def test_input_rep_action_matches_dataset_action():
    """rho of a group rotation reproduces the sampling-time action."""
    spec = generate_synthetic(
        "so2", 4, max_frequency=2, seed=27, noise_sigma_tangent=0.0, noise_sigma_ambient=0.0
    )
    G = build_group("cyclic", 8)
    rep = input_rep_for(spec, G)
    R = spec.representatives
    for k in range(8):
        theta = 2 * np.pi * k / 8
        expected = np.empty_like(R)
        for u, f in enumerate(spec.frequencies):
            c, s = np.cos(f * theta), np.sin(f * theta)
            expected[:, 2 * u] = c * R[:, 2 * u] - s * R[:, 2 * u + 1]
            expected[:, 2 * u + 1] = s * R[:, 2 * u] + c * R[:, 2 * u + 1]
        np.testing.assert_allclose(R @ rep.rho(k).T, expected, atol=1e-10)


# ------------------------------------------------------------- serialization


def test_dataset_json_roundtrip(tmp_path):
    spec = generate_synthetic("dihedral", 6, seed=28)
    ds = sample(spec, 40, "group", seed=29)
    ds = randomize_labels(ds, seed=30)
    path = tmp_path / "data.json"
    save_dataset(str(path), spec, ds)
    spec2, ds2 = load_dataset(str(path))
    assert spec2.symmetry == spec.symmetry
    assert spec2.frequencies == spec.frequencies
    np.testing.assert_array_equal(spec2.representatives, spec.representatives)
    np.testing.assert_array_equal(ds2.X, ds.X)  # bit-exact floats via repr
    np.testing.assert_array_equal(ds2.y, ds.y)
    np.testing.assert_array_equal(ds2.original_y, ds.original_y)
    assert ds2.B == ds.B
    assert ds2.augment == ds.augment


def test_save_dataset_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    """A dataset file is replaced whole or not at all, and no temporary file stays."""
    import os

    spec = generate_synthetic("so2", 2, max_frequency=2, seed=33)
    path = tmp_path / "data.json"
    save_dataset(str(path), spec, sample(spec, 12, "none", seed=34))
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        save_dataset(str(path), spec, sample(spec, 20, "none", seed=35))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["data.json"]


def _shorten(field):
    def mutate(data):
        data["samples"][field] = data["samples"][field][:-1]

    return mutate


def _set_first(field, value):
    def mutate(data):
        data["samples"][field][0] = value

    return mutate


def _shrink_b(data):
    data["samples"]["B"] *= 0.99


def _relabel_symmetry(data):
    data["spec"]["symmetry"] = "so3"


def _delete(*keys):
    def mutate(data):
        entry = data
        for key in keys[:-1]:
            entry = entry[key]
        del entry[keys[-1]]

    return mutate


def _samples_as_list(data):
    data["samples"] = list(data["samples"].values())


def _extra_frequency(data):
    data["spec"]["frequencies"].append(3)


def _empty(data):
    for field in ("X", "y", "rep_index", "angle", "reflect"):
        data["samples"][field] = []


def _set_original_y(values):
    def mutate(data):
        n = len(data["samples"]["y"])
        data["samples"]["original_y"] = values(n)

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_shorten("y"), "differ in length"),
        (_shorten("rep_index"), "differ in length"),
        (_shorten("angle"), "differ in length"),
        (_shorten("reflect"), "differ in length"),
        (_set_first("X", float("nan")), "non-finite"),
        (_set_first("X", float("inf")), "non-finite"),
        (_set_first("y", 2), "labels must be 0 or 1"),
        (_set_first("y", -1), "labels must be 0 or 1"),
        (_set_first("y", 0.5), "labels must be 0 or 1"),
        (_shrink_b, "below the largest row norm"),
        (_set_original_y(lambda n: [0, 1] * (n // 2) + [1]), "differ in length"),
        (_set_original_y(lambda n: [7] + [1] * (n - 1)), "original_y labels must be 0 or 1"),
        (_set_original_y(lambda n: [0.5] + [1] * (n - 1)), "original_y labels must be 0 or 1"),
        (_relabel_symmetry, "unknown symmetry 'so3'"),
        (_empty, "need at least one sample"),
        (_delete("samples"), r"data\.json: dataset lacks the key 'samples'$"),
        (_delete("spec", "labels"), r"data\.json: dataset lacks the key 'labels' in \['spec'\]"),
        (_delete("samples", "X"), r"data\.json: dataset lacks the key 'X' in \['samples'\]"),
        (_samples_as_list, r"data\.json: dataset \['samples'\] is not a JSON object"),
        (_extra_frequency, r"data\.json: 3 frequencies for D=2 units"),
    ],
    ids=[
        "short-y", "short-rep_index", "short-angle", "short-reflect",
        "nan-X", "inf-X", "label-2", "label-minus-1", "label-half", "small-B",
        "long-original_y", "original-label-7", "original-label-half", "unknown-symmetry",
        "empty", "no-samples", "no-spec-labels", "no-samples-X", "samples-list",
        "frequencies-not-D",
    ],
)
def test_load_dataset_rejects_malformed_samples(tmp_path, mutate, message):
    import json

    spec = generate_synthetic("so2", 2, max_frequency=2, seed=31)
    path = tmp_path / "data.json"
    save_dataset(str(path), spec, sample(spec, 12, "none", seed=32))
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=message) as refused:
        load_dataset(str(path))
    assert str(refused.value).startswith(f"{path}: ")
    assert str(refused.value).count(str(path)) == 1
