"""Finite-group arithmetic for cyclic, dihedral, and quaternion groups.

Groups are stored as Cayley tables over integer element indices.  The
element ordering is part of the public contract because it fixes signal
layouts and circulant matrices:

- cyclic C_N: rotations r_0, ..., r_{N-1} where r_k rotates by 2*pi*k/N;
- dihedral D_N: the N rotations followed by the N reflections
  s_k = s . r_k (reflection about the x-axis composed with r_k);
- quaternion Q8: (1, -1, i, -i, j, -j, k, -k).

Index 0 is always the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GROUP_KINDS",
    "FiniteGroup",
    "build_group",
    "group_from_json",
    "group_to_json",
]

GROUP_KINDS = ("cyclic", "dihedral", "quaternion")

# Quaternion units in the fixed element order, as integer (w, x, y, z) tuples.
_Q8_UNITS = (
    (1, 0, 0, 0),
    (-1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, -1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, -1, 0),
    (0, 0, 0, 1),
    (0, 0, 0, -1),
)


def _quat_mul(p: tuple, q: tuple) -> tuple:
    """Hamilton product of two quaternions given as (w, x, y, z) tuples."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group over element indices 0..order-1, identity at index 0.

    The `cayley` table holds cayley[a, b] = index of the product a*b, and
    `inverses[a]` is the index of a^{-1}.  Instances are immutable and safe
    to share across threads.
    """

    kind: str
    N: int
    order: int
    cayley: np.ndarray
    inverses: np.ndarray

    def __repr__(self) -> str:
        return f"FiniteGroup(kind={self.kind!r}, N={self.N}, order={self.order})"


def _cyclic_tables(N: int):
    k = np.arange(N)
    cayley = (k[:, None] + k[None, :]) % N
    inverses = (-k) % N
    return cayley, inverses


def _dihedral_tables(N: int):
    # Composition rules with s_b = s . r_b and s r_a = r_{-a} s:
    #   r_a r_b = r_{a+b},  r_a s_b = s_{b-a},  s_a r_b = s_{a+b},
    #   s_a s_b = r_{b-a}.
    a = np.arange(N)
    add = (a[:, None] + a[None, :]) % N
    sub = (a[None, :] - a[:, None]) % N
    cayley = np.empty((2 * N, 2 * N), dtype=np.int64)
    cayley[:N, :N] = add
    cayley[:N, N:] = N + sub
    cayley[N:, :N] = N + add
    cayley[N:, N:] = sub
    inverses = np.concatenate([(-a) % N, N + a])
    return cayley, inverses


def _quaternion_tables():
    index = {q: i for i, q in enumerate(_Q8_UNITS)}
    cayley = np.array(
        [[index[_quat_mul(p, q)] for q in _Q8_UNITS] for p in _Q8_UNITS],
        dtype=np.int64,
    )
    inverses = np.array([int(np.where(cayley[i] == 0)[0][0]) for i in range(8)])
    return cayley, inverses


@lru_cache(maxsize=None)
def build_group(kind: str, N: int = 1) -> FiniteGroup:
    """Construct a finite group of the given kind.

    N is the rotation order for cyclic and dihedral groups and is ignored
    for the quaternion group (whose N is stored as its order, 8).
    """
    if kind not in GROUP_KINDS:
        raise ValueError(f"unknown group kind {kind!r}; expected one of {GROUP_KINDS}")
    if kind == "quaternion":
        cayley, inverses = _quaternion_tables()
        N = 8
    else:
        if not isinstance(N, (int, np.integer)) or N < 1:
            raise ValueError(f"rotation order must be a positive integer, got {N!r}")
        N = int(N)
        if kind == "cyclic":
            cayley, inverses = _cyclic_tables(N)
        else:
            cayley, inverses = _dihedral_tables(N)
    cayley.setflags(write=False)
    inverses.setflags(write=False)
    return FiniteGroup(
        kind=kind,
        N=N,
        order=cayley.shape[0],
        cayley=cayley,
        inverses=inverses,
    )


def group_to_json(G: FiniteGroup) -> dict:
    """Serialize a group to its file descriptor {"kind": ..., "N": ...}."""
    return {"kind": G.kind, "N": G.N}


def group_from_json(data: dict) -> FiniteGroup:
    """Rebuild a group from its file descriptor."""
    return build_group(str(data["kind"]), int(data["N"]))
