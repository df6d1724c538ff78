"""Synthetic symmetric datasets on products of circles.

Four symmetry families are supported, one row each of SYMMETRIES:

- "so2": points on a product of D unit circles; planar rotation by a
  common angle acts on circle i with frequency f_i.
- "o2": each circle is doubled into a pair; reflections swap the two
  circles of a pair and negate the angle, so each pair carries a copy
  of the full orthogonal group of the circle.
- "cyclic" / "dihedral": the pair construction restricted to M discrete
  rotations (and reflections); D = floor(M/2) pairs with frequencies
  1..D.  Class 1 is generated from class 0 by a half-step rotation
  (and, for dihedral data, a mirror offset by the half step), so the
  classes are exact unions of group orbits.

Representatives fix one point on the first circle (or pair) and two
random points on every other, giving 2^(D-1) base points with random
binary labels for the continuous families.  Samples draw a uniform
representative, optionally act with a uniform group element, add
tangent noise with re-projection to the unit circle, then ambient
noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .equivariant import _check_keys, _naming, write_atomic
from .groups import FiniteGroup
from .irreps import RepSpec, direct_sum, restricted_frequency_rep

__all__ = [
    "DatasetSpec",
    "NOISE_AMBIENT",
    "NOISE_TANGENT",
    "SYMMETRIES",
    "SampleSet",
    "generate_synthetic",
    "input_rep_for",
    "load_dataset",
    "randomize_labels",
    "sample",
    "save_dataset",
]

# The default noise magnitudes of a synthetic task, tangent to its orbits
# and in the ambient space: `generate_synthetic`'s and `cli.SweepConfig`'s.
NOISE_TANGENT = 0.1
NOISE_AMBIENT = 0.01

# The one table of symmetry families: name -> (continuous, reflects).  A
# continuous family acts by every rotation angle, a discrete one by the M
# multiples of 2*pi/M; a reflecting family adds the pair mirror.
SYMMETRIES = {
    "so2": (True, False),
    "o2": (True, True),
    "cyclic": (False, False),
    "dihedral": (False, True),
}


def _unit_width(symmetry: str) -> int:
    """Ambient columns per unit: one circle for so2, a pair of circles otherwise."""
    return 2 if symmetry == "so2" else 4


@dataclass(frozen=True)
class DatasetSpec:
    """Geometry and labeling of one synthetic task.

    D counts circles for "so2" and circle pairs otherwise; frequencies
    has one entry per circle/pair.  M is the discrete rotation order
    (None for continuous symmetries).  Representatives are rows in the
    ambient space with binary labels.
    """

    symmetry: str
    D: int
    M: int | None
    frequencies: tuple[int, ...]
    representatives: np.ndarray
    labels: np.ndarray
    noise_sigma_tangent: float
    noise_sigma_ambient: float
    seed: int

    @property
    def paired(self) -> bool:
        return self.unit_width == 4

    @property
    def unit_width(self) -> int:
        return _unit_width(self.symmetry)

    @property
    def ambient_dim(self) -> int:
        return self.D * self.unit_width

    @property
    def n_representatives(self) -> int:
        return self.representatives.shape[0]


@dataclass(frozen=True)
class SampleSet:
    """A fixed sampled dataset with per-sample provenance arrays.

    provenance of sample i is (rep_index[i], angle[i], reflect[i]);
    original_y keeps the pre-randomization labels once labels have been
    randomized, else it is None.
    """

    X: np.ndarray
    y: np.ndarray
    B: float
    rep_index: np.ndarray
    angle: np.ndarray
    reflect: np.ndarray
    seed: int
    augment: str
    original_y: np.ndarray | None = None

    def __len__(self) -> int:
        return self.X.shape[0]


def _act(
    points: np.ndarray,
    frequencies: tuple[int, ...],
    theta: np.ndarray,
    reflect: np.ndarray | None,
) -> np.ndarray:
    """Apply per-sample group elements: rotate by theta, then mirror.

    Each row holds one unit per frequency, of one circle or a pair.  The
    mirror swaps the two circles of each pair and negates their angles;
    pass `reflect` only for paired geometries.
    """
    out = np.array(points, dtype=np.float64)
    circles = out.reshape(len(out), len(frequencies), -1, 2)  # a view of out
    ang = np.multiply.outer(theta, frequencies)[:, :, None]
    c, s = np.cos(ang), np.sin(ang)
    x, y = circles[..., 0], circles[..., 1]
    circles[:] = np.stack([c * x - s * y, s * x + c * y], axis=-1)
    if reflect is not None:
        mask = reflect.astype(bool)
        circles[mask] = circles[mask, :, ::-1] * [1.0, -1.0]
    return out


def _base_representatives(
    n_units: int, symmetry: str, rng: np.random.Generator
) -> np.ndarray:
    """All combinations of the fixed per-unit points: 2^(n_units-1) rows.

    Unit 0 contributes a single point (angle 0, first circle of the
    pair); every other unit contributes two points at a random angle
    and its antipode, keeping the alternatives well separated so that
    noisy samples from different representatives stay distinguishable.
    """
    width = _unit_width(symmetry)
    paired = width == 4
    angles = np.empty((n_units, 2))
    angles[:, 0] = rng.uniform(0.0, 2 * np.pi, size=n_units)
    angles[:, 1] = angles[:, 0] + np.pi
    angles[0] = 0.0
    if paired:
        sides = rng.integers(0, 2, size=(n_units, 2))
        sides[0] = 0
    n_reps = 2 ** (n_units - 1)
    reps = np.zeros((n_reps, n_units * width))
    for r in range(n_reps):
        bits = [0] + [(r >> (u - 1)) & 1 for u in range(1, n_units)]
        for u in range(n_units):
            a = angles[u, bits[u]]
            point = np.array([np.cos(a), np.sin(a)])
            base = u * width
            if paired:
                base += 2 * int(sides[u, bits[u]])
            reps[r, base : base + 2] = point
    return reps


def generate_synthetic(
    symmetry: str,
    size: int,
    max_frequency: int | None = None,
    seed: int = 0,
    noise_sigma_tangent: float = NOISE_TANGENT,
    noise_sigma_ambient: float = NOISE_AMBIENT,
) -> DatasetSpec:
    """Build a DatasetSpec.

    For "so2"/"o2", size is the number of circles/pairs D and
    max_frequency F assigns circle i the frequency ((i-1) mod F)+1
    (1-based).  For "cyclic"/"dihedral", size is the rotation order M;
    the construction uses D = floor(M/2) pairs with frequencies 1..D
    and the class-1 representatives are derived, not random.
    """
    if symmetry not in SYMMETRIES:
        raise ValueError(f"unknown symmetry {symmetry!r}")
    if noise_sigma_tangent < 0 or noise_sigma_ambient < 0:
        raise ValueError("noise magnitudes must be nonnegative")
    rng = np.random.default_rng(seed)
    continuous, reflects = SYMMETRIES[symmetry]
    if continuous:
        if size < 1:
            raise ValueError("need at least one circle")
        if max_frequency is None or max_frequency < 1:
            raise ValueError("continuous symmetries need max_frequency >= 1")
        D = size
        M = None
        frequencies = tuple((i % max_frequency) + 1 for i in range(D))
        reps = _base_representatives(D, symmetry, rng)
        labels = rng.integers(0, 2, size=reps.shape[0])
    else:
        if size < 2:
            raise ValueError("discrete symmetries need rotation order M >= 2")
        if max_frequency is not None:
            raise ValueError(
                "discrete symmetries fix the frequency range at floor(M/2)"
            )
        M = size
        D = M // 2
        frequencies = tuple(range(1, D + 1))
        base = _base_representatives(D, symmetry, rng)
        zeros = np.zeros(base.shape[0], dtype=np.int64)
        ones = np.ones(base.shape[0], dtype=np.int64)
        half = np.full(base.shape[0], np.pi / M)
        rotated = _act(base, frequencies, half, None)
        if reflects:
            mirrored = _act(base, frequencies, half, ones)
            both = _act(base, frequencies, 2 * half, ones)
            reps = np.concatenate([base, rotated, mirrored, both])
            labels = np.concatenate([zeros, ones, ones, zeros])
        else:
            reps = np.concatenate([base, rotated])
            labels = np.concatenate([zeros, ones])
    reps.setflags(write=False)
    labels.setflags(write=False)
    return DatasetSpec(
        symmetry=symmetry,
        D=D,
        M=M,
        frequencies=frequencies,
        representatives=reps,
        labels=labels,
        noise_sigma_tangent=float(noise_sigma_tangent),
        noise_sigma_ambient=float(noise_sigma_ambient),
        seed=seed,
    )


def sample(spec: DatasetSpec, m: int, augment: str, seed: int) -> SampleSet:
    """Draw a fixed set of m samples.

    augment="group" acts with a uniform symmetry-group element (uniform
    angle for continuous families, uniform discrete element otherwise);
    augment="none" keeps representatives in place.  Tangent noise
    perturbs each occupied circle and re-projects it to unit norm;
    ambient noise is added to every coordinate.  B records the largest
    sample norm.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    if augment not in ("none", "group"):
        raise ValueError(f"unknown augment mode {augment!r}")
    rng = np.random.default_rng(seed)
    rep_index = rng.integers(0, spec.n_representatives, size=m)
    angle = np.zeros(m)
    reflect = np.zeros(m, dtype=np.int64)
    if augment == "group":
        continuous, reflects = SYMMETRIES[spec.symmetry]
        if continuous:
            angle = rng.uniform(0.0, 2 * np.pi, size=m)
        else:
            angle = 2 * np.pi * rng.integers(0, spec.M, size=m) / spec.M
        if reflects:
            reflect = rng.integers(0, 2, size=m)
        points = spec.representatives[rep_index]
        X = _act(points, spec.frequencies, angle, reflect if reflects else None)
    else:
        X = np.array(spec.representatives[rep_index], dtype=np.float64)
    if spec.noise_sigma_tangent > 0:
        noise = spec.noise_sigma_tangent * rng.standard_normal((m, spec.D, 1, 2))
        circles = X.reshape(m, spec.D, -1, 2)  # a view of X
        # A unit's point lies on one circle; the other circle of a pair is zero.
        occupied = np.argmax(np.linalg.norm(circles, axis=-1), axis=-1)[:, :, None, None]
        block = np.take_along_axis(circles, occupied, axis=2) + noise
        norms = np.maximum(np.linalg.norm(block, axis=-1, keepdims=True), 1e-300)
        np.put_along_axis(circles, occupied, block / norms, axis=2)
    if spec.noise_sigma_ambient > 0:
        X += spec.noise_sigma_ambient * rng.standard_normal(X.shape)
    y = np.array(spec.labels[rep_index], dtype=np.int64)
    B = float(np.max(np.linalg.norm(X, axis=1)))
    for arr in (X, y, rep_index, angle, reflect):
        arr.setflags(write=False)
    return SampleSet(
        X=X,
        y=y,
        B=B,
        rep_index=rep_index,
        angle=angle,
        reflect=reflect,
        seed=seed,
        augment=augment,
    )


def randomize_labels(samples: SampleSet, seed: int) -> SampleSet:
    """Resample labels i.i.d. uniform; features and provenance untouched.

    The first pre-randomization labels are retained in original_y, so
    applying this twice with the same seed is idempotent.
    """
    rng = np.random.default_rng(seed)
    new_y = rng.integers(0, 2, size=len(samples))
    new_y.setflags(write=False)
    original = samples.original_y if samples.original_y is not None else samples.y
    return replace(samples, y=new_y, original_y=original)


def input_rep_for(spec: DatasetSpec, G: FiniteGroup) -> RepSpec:
    """The representation of G on the dataset's ambient space.

    Each circle (or pair) contributes the restriction of the frequency-f
    circle action to G; the pieces are direct-summed in unit order.
    """
    parts = [
        restricted_frequency_rep(G, f, reflected=spec.paired)
        for f in spec.frequencies
    ]
    return direct_sum(parts)


def save_dataset(path: str, spec: DatasetSpec, samples: SampleSet) -> None:
    """Write spec and samples as one JSON file (floats round-trip exactly).

    The file is written through `write_atomic`, so a failed save leaves
    any previous file intact.
    """
    data = {
        "spec": {
            "symmetry": spec.symmetry,
            "D": spec.D,
            "M": spec.M,
            "frequencies": list(spec.frequencies),
            "representatives": spec.representatives.reshape(-1).tolist(),
            "labels": spec.labels.tolist(),
            "noise_sigma_tangent": spec.noise_sigma_tangent,
            "noise_sigma_ambient": spec.noise_sigma_ambient,
            "seed": spec.seed,
        },
        "samples": {
            "X": samples.X.reshape(-1).tolist(),
            "y": samples.y.tolist(),
            "B": samples.B,
            "rep_index": samples.rep_index.tolist(),
            "angle": samples.angle.tolist(),
            "reflect": samples.reflect.tolist(),
            "seed": samples.seed,
            "augment": samples.augment,
            "original_y": None
            if samples.original_y is None
            else samples.original_y.tolist(),
        },
    }
    write_atomic(path, json.dumps(data))


# The key paths `load_dataset` reads and the JSON type of each, checked
# before it reads any (see `equivariant._check_keys`).  Labels may be
# any numbers here: `load_dataset` refuses those other than 0 and 1.
DATASET_KEYS = {
    ("spec", "symmetry"): "a string",
    ("spec", "D"): "an integer",
    ("spec", "M"): "an integer or null",
    ("spec", "frequencies"): "an array of integers",
    ("spec", "representatives"): "an array of numbers",
    ("spec", "labels"): "an array of integers",
    ("spec", "noise_sigma_tangent"): "a number",
    ("spec", "noise_sigma_ambient"): "a number",
    ("spec", "seed"): "an integer",
    ("samples", "X"): "an array of numbers",
    ("samples", "y"): "an array of numbers",
    ("samples", "B"): "a number",
    ("samples", "rep_index"): "an array of integers",
    ("samples", "angle"): "an array of numbers",
    ("samples", "reflect"): "an array of integers",
    ("samples", "seed"): "an integer",
    ("samples", "augment"): "a string",
    ("samples", "original_y"): "an array of numbers or null",
}


def load_dataset(path: str) -> tuple[DatasetSpec, SampleSet]:
    """Inverse of save_dataset.

    Raises ValueError, its message starting with the file's path, for a
    file that is not JSON, lacks a key of DATASET_KEYS or holds one with
    another JSON type, for a symmetry that is not a family of SYMMETRIES,
    for a D below 1 or a number of frequencies other than D, for
    representatives or features that do not fill whole rows, for a file
    with no samples, and when the samples are inconsistent: per-sample
    arrays (original_y included, when present) of different lengths,
    non-finite features, a label or original label outside {0, 1}, or a
    B below the largest feature norm.
    """
    with _naming(path):
        with open(path) as f:
            data = json.load(f)
        _check_keys(data, DATASET_KEYS, "dataset")
        s = data["spec"]
        if s["symmetry"] not in SYMMETRIES:
            raise ValueError(f"unknown symmetry {s['symmetry']!r}")
        n_units = s["D"]
        if n_units < 1:
            raise ValueError(f"D={n_units}, need at least one unit")
        if len(s["frequencies"]) != n_units:
            raise ValueError(f"{len(s['frequencies'])} frequencies for D={n_units} units")
        width = n_units * _unit_width(s["symmetry"])
        spec = DatasetSpec(
            symmetry=s["symmetry"],
            D=n_units,
            M=s["M"],
            frequencies=tuple(s["frequencies"]),
            representatives=_rows(("spec", "representatives"), s["representatives"], width),
            labels=np.asarray(s["labels"], dtype=np.int64),
            noise_sigma_tangent=float(s["noise_sigma_tangent"]),
            noise_sigma_ambient=float(s["noise_sigma_ambient"]),
            seed=s["seed"],
        )
        d = data["samples"]
        samples = SampleSet(
            X=_rows(("samples", "X"), d["X"], width),
            y=_labels("labels", d["y"]),
            B=float(d["B"]),
            rep_index=np.asarray(d["rep_index"], dtype=np.int64),
            angle=np.asarray(d["angle"], dtype=np.float64),
            reflect=np.asarray(d["reflect"], dtype=np.int64),
            seed=d["seed"],
            augment=d["augment"],
            original_y=None
            if d["original_y"] is None
            else _labels("original_y labels", d["original_y"]),
        )
        _check_samples(samples)
    return spec, samples


def _rows(keys: tuple[str, str], values: list, width: int) -> np.ndarray:
    """A flat list of numbers as float rows of `width` entries each."""
    if len(values) % width:
        raise ValueError(
            f"dataset key {keys[0]!r}[{keys[1]!r}] holds {len(values)} numbers, "
            f"not rows of {width}"
        )
    return np.asarray(values, dtype=np.float64).reshape(-1, width)


def _labels(name: str, values: list) -> np.ndarray:
    # Checked before the int64 cast, which would truncate 0.5 to 0.
    a = np.asarray(values)
    if not np.all((a == 0) | (a == 1)):
        raise ValueError(f"{name} must be 0 or 1")
    return a.astype(np.int64)


def _check_samples(samples: SampleSet) -> None:
    names = ["X", "y", "rep_index", "angle", "reflect"]
    if samples.original_y is not None:
        names.append("original_y")
    lengths = {name: len(getattr(samples, name)) for name in names}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"per-sample arrays differ in length: {lengths}")
    if len(samples.X) == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(samples.X)):
        raise ValueError("X has non-finite entries")
    # B is stored as the largest row norm itself; the slack absorbs a
    # last-bit difference when the norms are recomputed elsewhere.
    largest = float(np.max(np.linalg.norm(samples.X, axis=1), initial=0.0))
    if not largest <= samples.B * (1.0 + 1e-12):
        raise ValueError(f"B={samples.B!r} is below the largest row norm {largest!r}")
