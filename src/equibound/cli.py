"""Command-line interface: datasets, training, bounds, checks, sweeps.

Subcommands:

- gen-data: generate a synthetic dataset and write train/test JSON.
- train: fit an equivariant network to a dataset file.
- bound: compute all bounds for a trained model (CSV/JSON output).
- verify: run the oracle and Monte-Carlo check suite.
- sweep: run a grid of (dataset, group, m, seed) cells, training one
  model per cell, and emit one CSV row per cell plus correlation
  summaries.  Identical configs and seeds reproduce byte-identical CSV
  bodies.

Exit codes: 0 on success, 2 for invalid configuration or a path that
cannot be read or written, 3 when training misses the margin target
outside of a sweep, 4 when training diverges
(a non-finite loss or coefficients; a sweep stops at that cell and
writes no rows.csv).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .bounds import (
    BoundInputs,
    compute_report,
    csv_header,
    layer_norms,
    report_to_csv_row,
    report_to_json,
    tail_threshold,
)
from .datasets import (
    SYMMETRIES,
    generate_synthetic,
    input_rep_for,
    load_dataset,
    randomize_labels,
    sample,
    save_dataset,
)
from .equivariant import (
    MarginNotReached,
    TrainConfig,
    TrainingDiverged,
    _check_keys,
    _naming,
    build_network,
    channels_for_width,
    empirical_margin_loss,
    load_checkpoint,
    save_checkpoint,
    train,
    write_atomic,
)
from .groups import build_group
from .irreps import (
    frequency_action,
    irrep_by_id,
    irreps_of,
    regular_matrices,
    regular_representation,
    rep_violation,
    restricted_frequency_rep,
    stack_rep,
)
from .verify import (
    CheckResult,
    character_type_oracle,
    check_equivariance,
    chi_square_mc_check,
    convolution_theorem_check,
    format_check_result,
    fourier_roundtrip,
    intertwiner_identity_check,
    mc_perturbation_check,
    mc_tail_check,
)

__all__ = ["SweepConfig", "main", "run_sweep"]


def _derive_seed(base: int, tag: str) -> int:
    """Stable sub-seed from a base seed and a purpose tag."""
    digest = hashlib.sha256(f"{base}:{tag}".encode()).hexdigest()
    return int(digest[:16], 16) % (2**63)


# ---------------------------------------------------------------- gen-data


def _spec(settings, size: int, spec_seed: int):
    """The DatasetSpec of one synthetic task.

    `settings` is a gen-data namespace or a SweepConfig; both carry
    symmetry, d, noise_tangent and noise_ambient.  `size` is the max
    frequency F of a continuous family, on `d` circles or pairs, and the
    rotation order M of a discrete one.
    """
    continuous, _ = SYMMETRIES[settings.symmetry]
    return generate_synthetic(
        settings.symmetry,
        settings.d if continuous else size,
        max_frequency=size if continuous else None,
        seed=spec_seed,
        noise_sigma_tangent=settings.noise_tangent,
        noise_sigma_ambient=settings.noise_ambient,
    )


def _samples(settings, spec, m: int, seed: int, test_m: int | None):
    """The training and test sets of a task drawn from `spec`.

    `settings` carries augment and random_labels.  The sample seeds
    derive from `seed`; the test set is None unless `test_m` is given.
    """
    train_set = sample(spec, m, settings.augment, _derive_seed(seed, "train"))
    if settings.random_labels:
        train_set = randomize_labels(train_set, _derive_seed(seed, "labels"))
    if test_m is None:
        return train_set, None
    return train_set, sample(spec, test_m, "group", _derive_seed(seed, "test"))


def _cmd_gen_data(args: argparse.Namespace) -> int:
    _check_file_path("--train-out", args.train_out)
    _check_file_path("--test-out", args.test_out)
    continuous, _ = SYMMETRIES[args.symmetry]
    if continuous and (args.d is None or args.f is None):
        raise ValueError("--d and --f are required for continuous symmetries")
    if not continuous and args.m_order is None:
        raise ValueError("--m-order is required for discrete symmetries")
    size = args.f if continuous else args.m_order
    test_m = args.test_m if args.test_out else None
    spec = _spec(args, size, args.seed)
    train_set, test_set = _samples(args, spec, args.m, args.seed, test_m)
    save_dataset(args.train_out, spec, train_set)
    print(
        f"wrote {args.train_out}: {len(train_set)} samples, "
        f"{spec.n_representatives} representatives, B={train_set.B:.4f}"
    )
    if test_set is not None:
        save_dataset(args.test_out, spec, test_set)
        print(f"wrote {args.test_out}: {len(test_set)} samples, B={test_set.B:.4f}")
    return 0


# ------------------------------------------------------------------- train


def _build_net(input_rep, widths: list[int], seed: int):
    """The network one cell trains: regular hidden stacks of the input rep's group."""
    G = input_rep.group
    channels = [channels_for_width(G, w) for w in widths]
    return build_network(G, input_rep, channels, 2, seed=seed)


def _check_file_path(flag: str, path: str | None) -> None:
    """Raise ValueError when `path` cannot be written as a file: it is a
    directory, or its directory does not exist.  No path, no check."""
    if not path:
        return
    with _naming(f"{flag} {path}"):
        if os.path.isdir(path):
            raise ValueError("is a directory")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ValueError(f"no directory {parent}")


def _cmd_train(args: argparse.Namespace) -> int:
    _check_file_path("--out", args.out)
    cfg = TrainConfig(
        gamma=args.gamma,
        max_epochs=args.epochs,
        learning_rate=args.lr,
        batch_size=args.batch,
        seed=_derive_seed(args.seed, "shuffle"),
    )
    spec, train_set = load_dataset(args.data)
    G = build_group(*_parse_group(args.group))
    net = _build_net(input_rep_for(spec, G), args.widths, args.seed)
    channels = list(net.hidden_channels)
    result = train(net, train_set.X, train_set.y, cfg)
    print(
        f"trained in {result.epochs} epochs, "
        f"margin accuracy {result.margin_accuracy:.4f}, channels {channels}"
    )
    if args.out:
        save_checkpoint(
            args.out,
            net,
            {
                "gamma": args.gamma,
                "seed": args.seed,
                "epochs": result.epochs,
                "margin_accuracy": result.margin_accuracy,
                "data": args.data,
                "widths": list(args.widths),
                "channels": channels,
                "B": train_set.B,
                "m": len(train_set),
            },
        )
        print(f"wrote {args.out}")
    return 0


# ------------------------------------------------------------------- bound


def _bound_report(net, train_set, test_set, gamma: float, eta: float, delta: float):
    """Margin losses of a trained net, then its BoundReport.

    `test_set` may be None, which leaves the test error NaN.
    """
    train_err = empirical_margin_loss(net, train_set.X, train_set.y, 0.0)
    margin_loss = empirical_margin_loss(net, train_set.X, train_set.y, gamma)
    test_err = float("nan")
    if test_set is not None:
        test_err = empirical_margin_loss(net, test_set.X, test_set.y, 0.0)
    return compute_report(
        BoundInputs(
            net=net,
            m=len(train_set),
            gamma=gamma,
            B=train_set.B,
            train_margin_loss=margin_loss,
            delta=delta,
            eta=eta,
            train_err=train_err,
            test_err=test_err,
        )
    )


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue())


def _cmd_bound(args: argparse.Namespace) -> int:
    _check_file_path("--csv", args.csv)
    _check_file_path("--json", args.json)
    net, metadata = load_checkpoint(args.model)
    spec, train_set = load_dataset(args.data)
    gamma = args.gamma if args.gamma is not None else metadata.get("gamma")
    if gamma is None:
        raise ValueError("no gamma given and none recorded in the checkpoint")
    test_set = load_dataset(args.test_data)[1] if args.test_data else None
    report = _bound_report(net, train_set, test_set, float(gamma), args.eta, args.delta)
    print(f"train_err={report.train_err:.4f} test_err={report.test_err:.4f}")
    print(
        f"bound_main={report.bound_main:.6g} "
        f"bound_main_as_written={report.bound_main_as_written:.6g} "
        f"groupconv={report.bound_groupconv:.6g} alt={report.bound_alt:.6g}"
    )
    if args.csv:
        _write_csv(args.csv, csv_header(net.depth), [report_to_csv_row(report)])
        print(f"wrote {args.csv}")
    if args.json:
        write_atomic(args.json, json.dumps(report_to_json(report), indent=2))
        print(f"wrote {args.json}")
    return 0


# ------------------------------------------------------------------ verify


def _verify_suite(trials: int, seed: int) -> list:
    results = []

    worst = 0.0
    n_irreps = 0
    for kind, ns in (("cyclic", range(1, 17)), ("dihedral", range(1, 9)), ("quaternion", (8,))):
        for n in ns:
            G = build_group(kind, n)
            for psi in irreps_of(G):
                c = character_type_oracle(psi, G)
                worst = max(worst, abs(float(np.mean(psi.characters**2)) - c))
                n_irreps += 1
    results.append(CheckResult("character-types", worst, n_irreps, 0.01))

    worst = 0.0
    n_reps = 0
    for kind, n in (("cyclic", 8), ("dihedral", 6), ("quaternion", 8)):
        G = build_group(kind, n)
        reg = regular_representation(G)
        mats = regular_matrices(G)
        # Hidden layers use channel stacks; their action is kron(P_g, I).
        for channels in (1, 3):
            rho = np.stack([np.kron(P, np.eye(channels)) for P in mats])
            worst = max(worst, rep_violation(stack_rep(reg, channels), rho))
            n_reps += 1
    for kind, n, reflected in (("cyclic", 8, False), ("dihedral", 6, True)):
        G = build_group(kind, n)
        for f in range(0, 4):
            rep = restricted_frequency_rep(G, f, reflected)
            worst = max(worst, rep_violation(rep, frequency_action(G, f, reflected)))
            n_reps += 1
    results.append(CheckResult("rep-invariants", worst, n_reps, 1e-10))

    for kind, n, pid in (("dihedral", 4, "freq:1"), ("cyclic", 8, "freq:1"), ("quaternion", 8, "quat")):
        G = build_group(kind, n)
        results.append(
            intertwiner_identity_check(G, irrep_by_id(G, pid), trials, seed=seed)
        )

    for kind, n in (("cyclic", 8), ("dihedral", 6)):
        G = build_group(kind, n)
        results.append(fourier_roundtrip(G, trials, seed=seed))
        results.append(convolution_theorem_check(G, trials, seed=seed))

    results.append(chi_square_mc_check(np.array([1.0]), 1.0, max(trials * 50, 10000), seed=seed))
    rng = np.random.default_rng(seed)
    results.append(
        chi_square_mc_check(rng.uniform(0.1, 1.0, size=5), 2.0, max(trials * 50, 10000), seed=seed + 1)
    )

    reg4 = regular_representation(build_group("cyclic", 4))
    results.append(mc_tail_check(reg4, reg4, 1.0, max(trials * 10, 2000), seed=seed))

    for kind, n in (("cyclic", 3), ("dihedral", 4), ("quaternion", 8)):
        G = build_group(kind, n)
        if kind == "quaternion":
            input_rep = regular_representation(G)
        else:
            input_rep = restricted_frequency_rep(G, 1, kind == "dihedral")
        net = build_network(G, input_rep, [4, 2], 2, seed=seed)
        checks = [check_equivariance(layer, 1e-10) for layer in net.layers]
        checks.append(check_equivariance(net, 1e-8, seed=seed))
        results += [replace(r, name=f"{r.name}({kind}{n})") for r in checks]

    G = build_group("cyclic", 4)
    net = build_network(G, restricted_frequency_rep(G, 1, False), [4, 2], 2, seed=seed)
    sigma = _admissible_sigma(net)
    rng = np.random.default_rng(_derive_seed(seed, "inputs"))
    X = rng.standard_normal((20, net.input_rep.dim))
    B = float(np.max(np.linalg.norm(X, axis=1)))
    results.append(
        mc_perturbation_check(net, sigma, min(trials, 200), X, B, seed=seed)
    )
    return results


def _admissible_sigma(net) -> float:
    """A coefficient scale that keeps drawn perturbations admissible."""
    return 0.3 * min(
        layer_norms(layer)[0]
        / (net.depth * tail_threshold(layer.in_rep, layer.out_rep, 1.0, 1.0).threshold)
        for layer in net.layers
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    results = _verify_suite(args.trials, args.seed)
    all_passed = True
    for r in results:
        print(format_check_result(r))
        all_passed = all_passed and r.passed
    return 0 if all_passed else 1


# ------------------------------------------------------------------- sweep


@dataclass
class SweepConfig:
    """Grid description for a sweep run.

    `sizes` holds max frequencies F for continuous symmetries and
    rotation orders M for discrete ones.  `groups` is a list of
    (kind, N) pairs.  Every cell (size, m, seed, group) trains one
    model and yields one CSV row.
    """

    symmetry: str = "so2"
    sizes: list[int] = field(default_factory=lambda: [6])
    d: int = 6
    groups: list[tuple[str, int]] = field(
        default_factory=lambda: [("cyclic", 1), ("cyclic", 2), ("cyclic", 4), ("cyclic", 8), ("cyclic", 16)]
    )
    m_grid: list[int] = field(default_factory=lambda: [3200])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    gamma: float = 10.0
    widths: list[int] = field(default_factory=lambda: [2048, 512])
    eta: float = BoundInputs.eta
    delta: float = BoundInputs.delta
    noise_tangent: float = 0.1
    noise_ambient: float = 0.01
    augment: str = "none"
    random_labels: bool = False
    test_m: int = 10000
    learning_rate: float = TrainConfig.learning_rate
    max_epochs: int = TrainConfig.max_epochs
    batch_size: int = TrainConfig.batch_size
    out_dir: str = "sweep-out"

    def config_hash(self) -> str:
        """Hash of the experimental grid; where it is written is excluded."""
        payload = {k: v for k, v in asdict(self).items() if k != "out_dir"}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:12]


# The JSON type of a `--config` value, by the type hint of its
# SweepConfig field (names of `equivariant.JSON_TYPES`).
_CONFIG_TYPES = {
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    list[int]: "an array of integers",
    list[tuple[str, int]]: 'an array of [kind, N] pairs or "kind:N" strings',
}


def _load_sweep_config(args: argparse.Namespace) -> SweepConfig:
    """The JSON config of `--config`, with every flag given applied over it.

    Raises ValueError naming the file, and the key at fault, for a file
    that is not JSON, a key that is not a SweepConfig field or a value of
    another JSON type than its field's (a group may be "cyclic:8" text).
    """
    data = {}
    if args.config:
        with _naming(args.config):
            with open(args.config) as f:
                data = json.load(f)
            hints = typing.get_type_hints(SweepConfig)
            table = {(name + "?",): _CONFIG_TYPES[hint] for name, hint in hints.items()}
            _check_keys(data, table, "sweep config")
            for key in data:
                if key not in hints:
                    raise ValueError(f"sweep config key {key!r} is not a setting")
            if "groups" in data:
                with _naming("sweep config key 'groups'"):
                    data["groups"] = [_parse_group(g) if type(g) is str else g for g in data["groups"]]
    cfg = SweepConfig(**data)
    for f in fields(SweepConfig):
        value = getattr(args, f.name)
        if value is not None:
            setattr(cfg, f.name, value)
    if args.groups is not None:
        cfg.groups = [_parse_group(s) for s in args.groups]
    cfg.groups = [(str(k), int(n)) for k, n in cfg.groups]
    return cfg


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    """One flag per SweepConfig field, `x_y` as `--x-y`, None when not given.

    `groups`, whose elements are (kind, N) pairs, takes text:
    `_load_sweep_config` parses it, so a malformed group exits 2.
    """
    hints = typing.get_type_hints(SweepConfig)
    for f in fields(SweepConfig):
        hint = hints[f.name]
        kwargs = {"dest": f.name, "default": None}
        if hint is bool:
            kwargs["action"] = "store_true"
        elif typing.get_origin(hint) is list:
            (element,) = typing.get_args(hint)
            kwargs.update(nargs="+", type=str if typing.get_origin(element) else element)
        else:
            kwargs.update(type=hint, choices=_CHOICES.get(f.name))
        p.add_argument("--" + f.name.replace("_", "-"), **kwargs)


def _parse_group(text: str) -> tuple[str, int]:
    """Parse "cyclic:8" / "dihedral:3" / "quaternion" into (kind, N)."""
    if ":" in text:
        kind, n = text.split(":", 1)
        if not n.isdigit():
            raise ValueError(f"group {text!r}: expected kind:N with an integer N")
        return kind, int(n)
    return text, 8 if text == "quaternion" else 1


def _csv_cell(value) -> str:
    """A sweep row's leading column: str for str and int, exact repr for floats."""
    return str(value) if isinstance(value, (str, int)) else repr(float(value))


def _sweep_cell(cfg: SweepConfig, key, group, input_rep, train_set, test_set) -> dict:
    """Train and bound the network of one sweep cell; return its row.

    `key` is the cell's (size, seed) and `input_rep` is `group` acting on
    the key's data, drawn as `train_set` and `test_set`.
    """
    size, seed = key
    kind, N = group
    net = _build_net(input_rep, cfg.widths, _derive_seed(seed, f"model:{kind}:{N}"))
    shuffle_seed = _derive_seed(seed, f"shuffle:{kind}:{N}")
    tcfg = TrainConfig(cfg.gamma, cfg.max_epochs, cfg.learning_rate, cfg.batch_size, shuffle_seed)
    try:
        result = train(net, train_set.X, train_set.y, tcfg)
        reached, epochs, margin_acc = True, result.epochs, result.margin_accuracy
    except MarginNotReached as exc:
        reached, epochs, margin_acc = False, exc.epochs, exc.achieved
    return {
        "config_hash": cfg.config_hash(),
        "symmetry": cfg.symmetry,
        "size": size,
        "widths": "x".join(str(w) for w in cfg.widths),
        "channels": "x".join(str(c) for c in net.hidden_channels),
        "seed": seed,
        "epochs": epochs,
        "margin_reached": int(reached),
        "margin_accuracy": margin_acc,
        "random_labels": int(cfg.random_labels),
        "report": _bound_report(net, train_set, test_set, cfg.gamma, cfg.eta, cfg.delta),
    }


def run_sweep(cfg: SweepConfig) -> dict:
    """Train and bound every grid cell; write rows.csv and summary.json.

    Returns {"rows": ..., "csv_path": ..., "summary_path": ..., "summary": ...}.
    Each row is a dict whose keys other than "report" are, in order, the
    CSV's leading columns.  MarginNotReached cells are recorded with
    margin_reached=0 rather than dropped.  TrainingDiverged is not
    caught: it ends the sweep before rows.csv is written.  Both files
    are written atomically.
    """
    if not (cfg.sizes and cfg.m_grid and cfg.seeds and cfg.groups and cfg.widths):
        raise ValueError(
            "sweep grid is empty: sizes, m_grid, seeds, groups and widths each need a value"
        )
    if cfg.symmetry not in SYMMETRIES:
        raise ValueError(f"unknown symmetry {cfg.symmetry!r}")
    # Every setting is refused before out_dir is made, by the code that
    # holds its rule: TrainConfig checks the training settings,
    # BoundInputs gamma, eta, delta and each m; each (size, seed) spec and
    # each group's input rep on it are built here, and serve that key's
    # cells; channels_for_width checks each width (on the first group:
    # its rule is the same for every group); and the first key's datasets
    # are drawn, so that `sample` refuses test_m and augment.
    TrainConfig(cfg.gamma, cfg.max_epochs, cfg.learning_rate, cfg.batch_size)
    for m in cfg.m_grid:
        BoundInputs.check_settings(m, cfg.gamma, cfg.eta, cfg.delta)
    specs, input_reps = {}, {}
    for size, seed in itertools.product(cfg.sizes, cfg.seeds):
        spec_seed = _derive_seed(seed, f"spec:{cfg.symmetry}:{size}")
        spec = specs[size, seed] = _spec(cfg, size, spec_seed)
        input_reps[size, seed] = [input_rep_for(spec, build_group(*g)) for g in cfg.groups]
    G = build_group(*cfg.groups[0])
    for w in cfg.widths:
        with _naming(f"widths, got {w}"):
            channels_for_width(G, w)

    @functools.lru_cache(maxsize=1)
    def draw(size, m, seed):
        return _samples(cfg, specs[size, seed], m, seed, cfg.test_m)

    keys = list(itertools.product(cfg.sizes, cfg.m_grid, cfg.seeds))
    draw(*keys[0])
    os.makedirs(cfg.out_dir, exist_ok=True)
    rows = []
    for size, m, seed in keys:
        train_set, test_set = draw(size, m, seed)
        for group, input_rep in zip(cfg.groups, input_reps[size, seed]):
            rows.append(_sweep_cell(cfg, (size, seed), group, input_rep, train_set, test_set))
    rows.sort(
        key=lambda r: (
            r["symmetry"],
            r["size"],
            r["report"].m,
            r["report"].group_kind,
            r["report"].N,
            r["seed"],
        )
    )
    prefix = [k for k in rows[0] if k != "report"]
    csv_path = os.path.join(cfg.out_dir, "rows.csv")
    _write_csv(
        csv_path,
        prefix + csv_header(len(cfg.widths) + 1),
        [[_csv_cell(row[k]) for k in prefix] + report_to_csv_row(row["report"]) for row in rows],
    )
    summary = _sweep_summary(rows)
    summary_path = os.path.join(cfg.out_dir, "summary.json")
    write_atomic(summary_path, json.dumps(summary, indent=2, sort_keys=True))
    return {
        "rows": rows,
        "csv_path": csv_path,
        "summary_path": summary_path,
        "summary": summary,
    }


def _sweep_summary(rows: list[dict]) -> dict:
    """Correlations of bounds and group size against generalization error.

    Aggregates seeds into per-group means within each (symmetry, size, m)
    cell, then reports Spearman correlations and the least-squares slope
    of GE against 1/sqrt|H|.
    """
    cells: dict = {}
    for row in rows:
        rep = row["report"]
        cell = cells.setdefault((row["symmetry"], row["size"], rep.m), {})
        group = cell.setdefault((rep.group_kind, rep.N, rep.order), [])
        group.append(rep)
    summary = {}
    for (symmetry, size, m), groups in sorted(cells.items()):
        orders = []
        ge = []
        b_main = []
        b_alt = []
        sum_sqrt_m = []
        per_group = {}
        for (kind, N, order), reports in sorted(groups.items(), key=lambda kv: kv[0][2]):
            orders.append(order)
            ge.append(float(np.mean([r.generalization_error for r in reports])))
            b_main.append(float(np.mean([r.bound_main for r in reports])))
            b_alt.append(float(np.mean([r.bound_alt for r in reports])))
            sum_sqrt_m.append(
                float(
                    np.mean(
                        [sum(math.sqrt(v) for v in r.m_factors) for r in reports]
                    )
                )
            )
            per_group[f"{kind}:{N}"] = {
                "order": order,
                "GE": ge[-1],
                "bound_main": b_main[-1],
                "bound_alt": b_alt[-1],
            }
        inv_sqrt = [1.0 / math.sqrt(o) for o in orders]
        entry = {"per_group": per_group}
        if len(orders) >= 2:
            entry["spearman_bound_main_vs_ge"] = _spearman(b_main, ge)
            entry["spearman_bound_alt_vs_ge"] = _spearman(b_alt, ge)
            entry["spearman_sum_sqrt_m_vs_ge"] = _spearman(sum_sqrt_m, ge)
            entry["spearman_ge_vs_inv_sqrt_order"] = _spearman(ge, inv_sqrt)
            slope, intercept = np.polyfit(inv_sqrt, ge, 1)
            entry["ge_vs_inv_sqrt_order_slope"] = float(slope)
            entry["ge_vs_inv_sqrt_order_intercept"] = float(intercept)
        summary[f"symmetry={symmetry},size={size},m={m}"] = entry
    return summary


def _spearman(a: list[float], b: list[float]) -> float:
    """Spearman's rho of a and b.

    NaN when an input is constant or holds a NaN; otherwise Pearson's r
    of the average ranks, taken by `np.corrcoef` on the ranks stacked as
    columns.  Other orderings of that arithmetic move the last bits;
    tests/test_cli.py pins this one against the reference implementation.
    """
    x = np.column_stack([a, b])
    if np.isnan(x).any() or (x == x[0]).all(axis=0).any():
        return float("nan")
    ranks = np.column_stack([_average_ranks(column) for column in x.T])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    # Tie run r covers sorted positions bounds[r] .. bounds[r + 1] - 1.
    bounds = np.r_[np.flatnonzero(starts), len(x)]
    run = np.cumsum(starts) - 1
    ranks = np.empty(len(x))
    ranks[order] = 0.5 * (bounds[run] + bounds[run + 1] + 1)
    return ranks


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_sweep_config(args)
    out = run_sweep(cfg)
    n = len(out["rows"])
    failed = sum(1 for r in out["rows"] if not r["margin_reached"])
    print(f"{n} rows -> {out['csv_path']} ({failed} cells missed the margin target)")
    print(f"summary -> {out['summary_path']}")
    return 0


# -------------------------------------------------------------------- main

# Values of the settings that gen-data and sweep both take.
_CHOICES = {"symmetry": tuple(SYMMETRIES), "augment": ("none", "group")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equibound",
        description="Equivariant networks with PAC-Bayesian generalization bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--symmetry", required=True, choices=_CHOICES["symmetry"])
    p.add_argument("--d", type=int, default=None, help="circles/pairs (continuous)")
    p.add_argument("--f", type=int, default=None, help="max frequency (continuous)")
    p.add_argument("--m-order", type=int, default=None, help="rotation order M (discrete)")
    p.add_argument("--m", type=int, default=3200, help="training samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-tangent", type=float, default=0.1)
    p.add_argument("--noise-ambient", type=float, default=0.01)
    p.add_argument("--augment", choices=_CHOICES["augment"], default="none")
    p.add_argument("--random-labels", action="store_true")
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", default=None)
    p.add_argument("--test-m", type=int, default=SweepConfig.test_m)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train an equivariant network")
    p.add_argument("--data", required=True)
    p.add_argument("--group", required=True, help="cyclic:N, dihedral:N or quaternion")
    p.add_argument("--widths", type=int, nargs="+", default=[2048, 512])
    p.add_argument("--gamma", type=float, default=SweepConfig.gamma)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="checkpoint path (JSON)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bound", help="compute bounds for a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="training dataset file")
    p.add_argument("--test-data", default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--eta", type=float, default=BoundInputs.eta)
    p.add_argument("--delta", type=float, default=BoundInputs.delta)
    p.add_argument("--csv", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="run oracle and Monte-Carlo checks")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="run a sweep grid from a JSON config")
    p.add_argument("--config", default=None)
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MarginNotReached as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
