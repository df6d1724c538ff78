"""Workload definitions, set-up, one measured repetition, and its checks.

Each workload trains for a fixed epoch budget that stays below the margin
target, so the work per repetition does not depend on when training
converges; the checks confirm the budget was used in full.

The networks a workload trains and bounds are the same on every run:
their task, training samples, initial weights and batch order come from
TASK_SEED.  The time `compute_report` takes depends on the network,
because power iteration converges at a rate set by its spectrum; on
networks trained from different seeds one call took from 0.011 s to
0.72 s.  No run length averages that out, so the workload seed draws
only inputs that leave the work unchanged: the wide workloads' test set
and the order in which a grid runs its cells.

Importing this module imports equibound from the checkout's src/ and
caps the BLAS threads at the number of usable cores, so it must be
imported before numpy.
"""

from __future__ import annotations

import hashlib
import os
import platform
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "equibound").is_dir():
    raise SystemExit(f"perfbench: no equibound sources under {SRC}")

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    _value = os.environ.get(_var, "")
    if not _value.isdigit() or not 1 <= int(_value) <= NPROC:
        os.environ[_var] = str(NPROC)

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import scipy  # noqa: E402

from equibound import bounds, cli, datasets, equivariant, groups, kernels, verify  # noqa: E402
from equibound.irreps import RepSpec, irreps_of  # noqa: E402


def _git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """What the numbers depend on besides the code: versions, BLAS, threads."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
        "nproc": NPROC,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numba_enabled": kernels.NUMBA_ENABLED,
    }


TASK_SEED = 0


def derive_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"perfbench:{seed}:{tag}".encode()).hexdigest()
    return int(digest[:15], 16)


@dataclass(frozen=True)
class Wide:
    """One train -> bound cell, as `equibound train` + `bound` run it."""

    group: tuple[str, int]
    widths: tuple[int, ...] = (2048, 512)
    d: int = 6
    f: int = 6
    m: int = 3200
    test_m: int = 10000
    batch: int = 256
    gamma: float = 10.0
    learning_rate: float = 0.01
    epochs: int = 2

    @property
    def samples(self) -> int:
        return self.epochs * self.m


@dataclass(frozen=True)
class Grid:
    """`cli.run_sweep` over each sweep."""

    sweeps: tuple[dict, ...]
    widths: tuple[int, ...] = (512, 128)
    m: int = 3200
    test_m: int = 10000
    batch: int = 256
    gamma: float = 10.0
    learning_rate: float = 0.01
    epochs: int = 6

    @property
    def cells(self) -> int:
        return sum(len(s["sizes"]) * len(s["groups"]) for s in self.sweeps)

    @property
    def samples(self) -> int:
        return self.epochs * self.m * self.cells


WORKLOADS = {
    "c8_wide": Wide(group=("cyclic", 8)),
    "c1_wide": Wide(group=("cyclic", 1)),
    # The test_08 grid with one seed, plus one o2 cell on the dihedral
    # group.  Q8 is absent: no dataset has a Q8 action.
    "grid_small": Grid(
        sweeps=(
            {
                "symmetry": "so2",
                "sizes": (6,),
                "d": 6,
                "groups": tuple(("cyclic", n) for n in (1, 2, 4, 8, 16)),
            },
            {"symmetry": "o2", "sizes": (3,), "d": 6, "groups": (("dihedral", 4),)},
        )
    ),
}


def shrink(wl):
    """A tiny version of a workload with the same code paths (smoke test)."""
    small = dict(widths=(32, 8), m=48, test_m=40, batch=16, epochs=1)
    if isinstance(wl, Grid):
        sweeps = tuple(dict(s, groups=s["groups"][:2]) for s in wl.sweeps)
        return replace(wl, sweeps=sweeps, **small)
    return replace(wl, **small)


# ------------------------------------------------------------------ set-up


def _dataset(symmetry: str, d: int, f: int, m: int, test_m: int, seed: int):
    task = f"{symmetry}:{d}:{f}"
    spec = datasets.generate_synthetic(
        symmetry, d, max_frequency=f, seed=derive_seed(TASK_SEED, f"{task}:spec")
    )
    train_set = datasets.sample(spec, m, "none", derive_seed(TASK_SEED, f"{task}:train"))
    test_set = datasets.sample(spec, test_m, "group", derive_seed(seed, f"{task}:test"))
    return spec, train_set, test_set


def network(spec, group: tuple[str, int], widths):
    G = groups.build_group(*group)
    input_rep = datasets.input_rep_for(spec, G)
    channels = [equivariant.channels_for_width(G, w) for w in widths]
    return equivariant.build_network(
        G, input_rep, channels, 2, seed=derive_seed(TASK_SEED, f"{group}:model")
    )


def set_up(wl, seed: int) -> dict:
    """Build the datasets and networks a workload trains.

    For a grid this is the set-up `run_sweep` repeats inside each cell;
    it is timed here on its own so that `setup_s` covers every workload.
    """
    if isinstance(wl, Wide):
        spec, train_set, test_set = _dataset("so2", wl.d, wl.f, wl.m, wl.test_m, seed)
        net = network(spec, wl.group, wl.widths)
        return {"spec": spec, "train": train_set, "test": test_set, "net": net}
    nets = []
    for s in wl.sweeps:
        for size in s["sizes"]:
            spec, _, _ = _dataset(s["symmetry"], s["d"], size, wl.m, wl.test_m, seed)
            nets += [network(spec, g, wl.widths) for g in s["groups"]]
    return {"nets": nets}


# --------------------------------------------------------- one repetition


def run_wide(wl: Wide, inputs: dict, net) -> dict:
    """Train and bound one network, as the CLI does.

    Every repetition trains the same initial network on the same batch
    order.  Returns what the checks need.
    """
    train_set, test_set = inputs["train"], inputs["test"]
    cfg = equivariant.TrainConfig(
        gamma=wl.gamma,
        max_epochs=wl.epochs,
        learning_rate=wl.learning_rate,
        batch_size=wl.batch,
        seed=derive_seed(TASK_SEED, "shuffle"),
    )
    out = {"net": net, "reached": True, "epochs": None, "achieved": None}
    try:
        result = equivariant.train(net, train_set.X, train_set.y, cfg)
        out["epochs"], out["achieved"] = result.epochs, result.margin_accuracy
    except equivariant.MarginNotReached as exc:
        out["reached"], out["epochs"], out["achieved"] = False, exc.epochs, exc.achieved
    out["errors"], out["report"] = evaluate(wl, inputs, net)
    return out


def evaluate(wl: Wide, inputs: dict, net) -> tuple:
    """Margin losses and bound report, as `equibound bound` computes them.

    Every layer is marked dirty first, so that each evaluation rebuilds
    the dense matrices as `equibound bound` does after loading a model.
    """
    for layer in net.layers:
        layer.mark_dirty()
    train_set, test_set = inputs["train"], inputs["test"]
    train_err = equivariant.empirical_margin_loss(net, train_set.X, train_set.y, 0.0)
    margin_loss = equivariant.empirical_margin_loss(net, train_set.X, train_set.y, wl.gamma)
    test_err = equivariant.empirical_margin_loss(net, test_set.X, test_set.y, 0.0)
    report = bounds.compute_report(
        bounds.BoundInputs(
            net=net,
            m=wl.m,
            gamma=wl.gamma,
            B=train_set.B,
            train_margin_loss=margin_loss,
            train_err=train_err,
            test_err=test_err,
        )
    )
    return (train_err, margin_loss, test_err), report


def run_grid(wl: Grid, workdir: Path, seed: int) -> dict:
    """Run every sweep through `cli.run_sweep`; return its rows, nets and bound inputs.

    Every repetition runs the same cells with the same sweep seed, in an
    order drawn from `seed`.  A cell's data and model seeds do not depend
    on its position.
    """
    trained, bound_inputs = [], []
    traced_train, traced_report = cli.train, cli.compute_report

    def capture(net, X, y, cfg):
        trained.append((net, X, y))
        return traced_train(net, X, y, cfg)

    def capture_report(inputs):
        bound_inputs.append(inputs)
        return traced_report(inputs)

    rows = []
    cli.train, cli.compute_report = capture, capture_report
    try:
        for k, s in enumerate(wl.sweeps):
            order = list(s["groups"])
            random.Random(derive_seed(seed, f"order:{k}")).shuffle(order)
            cfg = cli.SweepConfig(
                symmetry=s["symmetry"],
                sizes=list(s["sizes"]),
                d=s["d"],
                groups=[tuple(g) for g in order],
                m_grid=[wl.m],
                seeds=[TASK_SEED],
                gamma=wl.gamma,
                widths=list(wl.widths),
                test_m=wl.test_m,
                learning_rate=wl.learning_rate,
                max_epochs=wl.epochs,
                batch_size=wl.batch,
                out_dir=str(workdir / f"sweep{k}"),
            )
            rows += cli.run_sweep(cfg)["rows"]
    finally:
        cli.train, cli.compute_report = traced_train, traced_report
    return {"rows": rows, "trained": trained, "bound_inputs": bound_inputs}


def round_trip(nets, workdir: Path) -> tuple[list, int]:
    """Save and reload each net; return the loaded (net, metadata) pairs and bytes written."""
    loaded = []
    size = 0
    for i, net in enumerate(nets):
        path = workdir / f"model{i}.json"
        equivariant.save_checkpoint(str(path), net, {"index": i})
        size += path.stat().st_size
        loaded.append(equivariant.load_checkpoint(str(path)))
    return loaded, size


# ------------------------------------------------------------------ checks


class Checks:
    """Counts correctness checks; a failed one is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)


SPECTRAL_RTOL = 1e-6
GROUPCONV_RTOL = 1e-12
EQUIVARIANCE_RTOL = 1e-9


def _is_regular_stack(rep) -> bool:
    """True when rep is c copies of the regular representation."""
    mults = dict(rep.blocks)
    c = mults.get("triv", 0)
    return c > 0 and all(
        mults.get(psi.id, 0) * psi.type_c == c * psi.dim
        for psi in irreps_of(rep.group)
    )


def check_net(check: Checks, label: str, net, reports, X, y) -> None:
    """Checks shared by every trained network and each bound report made of it."""
    coeffs_finite = all(
        np.all(np.isfinite(a)) for layer in net.layers for a in layer.coefficients.values()
    )
    logits = net.forward(X)
    z = logits - logits.max(axis=1, keepdims=True)
    loss = float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(y)), y]))
    check(coeffs_finite and np.isfinite(loss), f"{label}: non-finite loss or parameters")

    oracles = [verify.dense_spectral_oracle(layer.matrix) for layer in net.layers]
    regular = all(_is_regular_stack(rep) for rep in net.reps)
    for report in reports:
        for l, oracle in enumerate(oracles):
            rel = abs(report.spectral_norms[l] - oracle) / oracle
            check(rel <= SPECTRAL_RTOL, f"{label}: layer {l + 1} spectral norm off by {rel:.2e}")

        # bound_groupconv equals bound_main when every rep, input and
        # logits included, is a regular stack: only on C1 here.  Otherwise
        # the group-conv formula counts each rep as its regular-stack
        # cover, which can only raise the complexity term (eta is 1/2 in
        # both).
        main, gc = report.bound_main, report.bound_groupconv
        finite = all(np.isfinite(v) and v > 0 for v in (main, gc, report.bound_alt))
        if regular:
            ok = finite and abs(gc - main) <= GROUPCONV_RTOL * main
        else:
            ok = finite and gc >= main * (1.0 - GROUPCONV_RTOL)
        check(ok, f"{label}: bound_groupconv {gc!r} against bound_main {main!r}")

    scale = max(1.0, float(np.max(np.abs(logits))))
    eq = verify.check_equivariance(net, EQUIVARIANCE_RTOL * scale)
    check(eq.passed, f"{label}: logit invariance violated by {eq.max_violation:.2e}")


def check_wide(check: Checks, wl: Wide, inputs: dict, out: dict, repeats: list) -> None:
    """`repeats` holds the (margin losses, report) of each repeated evaluation."""
    check(
        not out["reached"] and out["epochs"] == wl.epochs,
        f"trained {out['epochs']} of {wl.epochs} epochs (target reached: {out['reached']})",
    )
    train_err, margin_loss, test_err = out["errors"]
    check(
        all(0.0 <= e <= 1.0 for e in out["errors"])
        and train_err <= margin_loss
        and abs(margin_loss - (1.0 - out["achieved"])) <= 1e-12,
        f"margin losses {out['errors']} disagree with training's {out['achieved']!r}",
    )
    for errors, _ in repeats:
        check(errors == out["errors"], f"repeated evaluation gave {errors}, not {out['errors']}")
    reports = [out["report"]] + [report for _, report in repeats]
    train_set = inputs["train"]
    check_net(check, "wide", out["net"], reports, train_set.X, train_set.y)


def check_grid(check: Checks, wl: Grid, out: dict, repeats: list) -> None:
    """`repeats` holds each repeated pass of reports, one per bound input."""
    rows = out["rows"]
    position = {id(b.net): k for k, b in enumerate(out["bound_inputs"])}
    check(len(rows) == wl.cells == len(out["trained"]), f"{len(rows)} sweep rows")
    by_group = {(r["report"].group_kind, r["report"].N): r for r in rows}
    for net, X, y in out["trained"]:
        label = f"{net.group.kind}:{net.group.N}"
        row = by_group[(net.group.kind, net.group.N)]
        check(
            row["epochs"] == wl.epochs and not row["margin_reached"],
            f"{label}: ran {row['epochs']} of {wl.epochs} epochs",
        )
        loss = row["report"].train_margin_loss
        check(
            abs(loss - (1.0 - row["margin_accuracy"])) <= 1e-12,
            f"{label}: margin loss {loss!r} disagrees with training",
        )
        again = [reports[position[id(net)]] for reports in repeats]
        check_net(check, label, net, [row["report"]] + again, X, y)


def check_round_trip(check: Checks, nets, loaded, probes) -> None:
    """A reloaded net gives bit-identical outputs and its metadata back."""
    for i, (net, (again, metadata), X) in enumerate(zip(nets, loaded, probes)):
        same = np.array_equal(net.forward(X), again.forward(X))
        check(same and metadata == {"index": i}, f"checkpoint {i} did not round-trip")
