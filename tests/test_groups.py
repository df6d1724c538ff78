"""Cayley-table oracles and structural invariants for the finite groups."""

import numpy as np
import pytest

from equibound.groups import build_group, group_from_json, group_to_json

# Hand-computed quaternion products in the fixed element order
# (1, -1, i, -i, j, -j, k, -k); indices 0..7.
Q8_ORACLE = {
    ("i", "j"): "k",
    ("j", "i"): "-k",
    ("j", "k"): "i",
    ("k", "j"): "-i",
    ("k", "i"): "j",
    ("i", "k"): "-j",
    ("i", "i"): "-1",
    ("j", "j"): "-1",
    ("k", "k"): "-1",
    ("-1", "-1"): "1",
    ("-1", "i"): "-i",
    ("-i", "i"): "1",
}

Q8_INDEX = {"1": 0, "-1": 1, "i": 2, "-i": 3, "j": 4, "-j": 5, "k": 6, "-k": 7}


def test_quaternion_product_oracle():
    G = build_group("quaternion")
    for (a, b), expected in Q8_ORACLE.items():
        got = G.compose(Q8_INDEX[a], Q8_INDEX[b])
        assert got == Q8_INDEX[expected], f"{a}*{b} should be {expected}"


def test_quaternion_element_names():
    G = build_group("quaternion")
    assert G.names == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    assert G.order == 8
    assert G.N == 8


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 16])
def test_cyclic_is_addition_mod_n(N):
    G = build_group("cyclic", N)
    for a in range(N):
        for b in range(N):
            assert G.compose(a, b) == (a + b) % N
        assert G.inverse(a) == (-a) % N


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6, 8])
def test_dihedral_composition_oracle(N):
    """Check against the rotation/reflection calculus.

    With r_a the rotation by 2*pi*a/N and s_b the reflection composed
    with r_b, the products follow from s r_a = r_{-a} s.
    """
    G = build_group("dihedral", N)
    r = lambda a: a % N
    s = lambda a: N + (a % N)
    for a in range(N):
        for b in range(N):
            assert G.compose(r(a), r(b)) == r(a + b)
            assert G.compose(r(a), s(b)) == s(b - a)
            assert G.compose(s(a), r(b)) == s(a + b)
            assert G.compose(s(a), s(b)) == r(b - a)


@pytest.mark.parametrize(
    "kind,N",
    [("cyclic", 1), ("cyclic", 7), ("cyclic", 16), ("dihedral", 1), ("dihedral", 6), ("quaternion", 8)],
)
def test_group_axioms(kind, N):
    G = build_group(kind, N)
    n = G.order
    table = G.cayley
    # identity at index 0
    assert np.array_equal(table[0], np.arange(n))
    assert np.array_equal(table[:, 0], np.arange(n))
    # each row and column is a permutation
    for i in range(n):
        assert sorted(table[i]) == list(range(n))
        assert sorted(table[:, i]) == list(range(n))
    # associativity
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert table[table[a, b], c] == table[a, table[b, c]]
    # inverses
    for a in range(n):
        assert table[a, G.inverses[a]] == 0
        assert table[G.inverses[a], a] == 0


def test_dihedral_reflection_geometry():
    """s_k matches the matrix diag(1,-1) @ R(2*pi*k/N) acting on the plane."""
    N = 5
    G = build_group("dihedral", N)
    S = np.diag([1.0, -1.0])

    def mat(g):
        if g < N:
            t = 2 * np.pi * g / N
            return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        t = 2 * np.pi * (g - N) / N
        return S @ np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    for a in range(2 * N):
        for b in range(2 * N):
            np.testing.assert_allclose(
                mat(a) @ mat(b), mat(G.compose(a, b)), atol=1e-12
            )


def test_build_group_validation():
    with pytest.raises(ValueError):
        build_group("icosahedral", 5)
    with pytest.raises(ValueError):
        build_group("cyclic", 0)
    # N is documented as ignored for the quaternion group
    assert build_group("quaternion", 4).order == 8


def test_compose_bad_index():
    G = build_group("cyclic", 4)
    with pytest.raises(IndexError):
        G.compose(4, 0)
    with pytest.raises(IndexError):
        G.inverse(-5)


def test_group_json_roundtrip():
    for kind, N in (("cyclic", 6), ("dihedral", 3), ("quaternion", 8)):
        G = build_group(kind, N)
        G2 = group_from_json(group_to_json(G))
        assert G2 is G  # build_group caches, serialization stores (kind, N)


def test_cayley_tables_are_read_only():
    G = build_group("cyclic", 5)
    with pytest.raises(ValueError):
        G.cayley[0, 0] = 3
