"""Benchmark of equibound: training, bounding, checkpointing and sweeps.

    python3 perfbench/run.py --workload c8_wide --seed 0 --seconds 30 --trace 0

With --trace 0 the last line holds the end-to-end metrics, with --trace 1
the per-layer metrics of a separate, traced run.  Both runs time calls
into equibound's public functions from outside; see README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracing import Tracer
from workloads import bounds, cli, datasets, equivariant

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# A wide cell's evaluation and report take under a second, too short for
# one sample per cell to be steady on a shared machine.  After each cell
# they run this many times more; eval_s and report_s take the one inside
# the cell and these repeats as samples.
EVAL_REPEATS = 4
# After each grid pass, its cells' reports are made this many times more.
REPORT_REPEATS = 3

# Spans taken in every run: the calls that make up the end-to-end metrics.
END_TO_END_SPANS = (
    ("equivariant.train", ((equivariant, "train"), (cli, "train"))),
    (
        "equivariant.empirical_margin_loss",
        ((equivariant, "empirical_margin_loss"), (cli, "empirical_margin_loss")),
    ),
    ("bounds.compute_report", ((bounds, "compute_report"), (cli, "compute_report"))),
    ("equivariant.save_checkpoint", ((equivariant, "save_checkpoint"),)),
    ("equivariant.load_checkpoint", ((equivariant, "load_checkpoint"),)),
    ("cli.run_sweep", ((cli, "run_sweep"),)),
)

# Spans taken only in the traced run.
LAYER_SPANS = (
    ("irreps.to_block", ((workloads.RepSpec, "to_block"),)),
    ("irreps.from_block", ((workloads.RepSpec, "from_block"),)),
    ("equivariant.matrix", ((equivariant.EquivariantLayer, "matrix"),)),
    ("equivariant.block_matrix", ((equivariant.EquivariantLayer, "block_matrix"),)),
    ("equivariant.loss_and_grads", ((equivariant.EquivariantNetwork, "loss_and_grads"),)),
    ("equivariant.margins", ((equivariant, "margins"),)),
    ("kernels.expand", ((equivariant, "expand_coefficients"),)),
    ("kernels.project", ((equivariant, "project_coefficients"),)),
    ("bounds.main_bound", ((bounds, "main_bound"),)),
    ("bounds.groupconv_bound", ((bounds, "groupconv_bound"),)),
    ("bounds.alternative_bound", ((bounds, "alternative_bound"),)),
    ("bounds.spectral_norm", ((bounds, "spectral_norm"),)),
    ("datasets.sample", ((datasets, "sample"), (cli, "sample"))),
    (
        "irreps.rep_build",
        (
            (datasets, "restricted_frequency_rep"),
            (datasets, "direct_sum"),
            (equivariant, "regular_representation"),
            (equivariant, "stack_rep"),
            (equivariant, "trivial_stack"),
        ),
    ),
    ("equivariant.build_network", ((equivariant, "build_network"), (cli, "build_network"))),
)


def _rebuilds_only(tracer: Tracer, i: int, children) -> str | None:
    """A `matrix` read that rebuilt the dense W counts as a rebuild; a cache hit is dropped."""
    name = tracer.spans[i][0]
    if name != "equivariant.matrix":
        return name
    return "equivariant.rebuild" if "equivariant.block_matrix" in children else None


def end_to_end(wl, totals: dict, again: list[dict]) -> dict:
    """Samples of the end-to-end metrics in one repetition: a wide cell or a grid pass.

    `again` holds the totals of the evaluations (wide) or reports (grid)
    repeated after the repetition; each is one more sample next to the
    repetition's own.
    """
    train_s = totals["equivariant.train"][0]
    if isinstance(wl, workloads.Wide):
        cell_s = totals["rep"][0]
        evals = [totals] + again
    else:
        cell_s = totals["cli.run_sweep"][0] / wl.cells
        evals = [totals]
    return {
        "train_samples_per_s": [wl.samples / train_s],
        "eval_s": [t["equivariant.empirical_margin_loss"][0] for t in evals],
        "report_s": [t["bounds.compute_report"][0] for t in [totals] + again],
        "cell_s": [cell_s],
    }


def per_layer(wl, totals: dict, again: list[dict]) -> dict:
    """Per-layer metrics of one traced repetition.

    Times and counts are totals over the repetition, except the two
    per-step means optimizer_ms and step_ms.
    """
    t = totals
    steps = t["equivariant.loss_and_grads"][2]
    train_self = t["equivariant.train"][1]
    # The layer that drives the cells: run_sweep on a grid; on a wide
    # workload, this benchmark's train -> evaluate -> bound sequence.
    outer = "rep" if isinstance(wl, workloads.Wide) else "cli.run_sweep"
    out = {}
    for name in (
        "irreps.to_block",
        "irreps.from_block",
        "equivariant.rebuild",
        "equivariant.margins",
        "kernels.expand",
        "kernels.project",
    ):
        out[f"{name}_ms"] = 1e3 * t[name][0]
        out[f"{name}_calls"] = t[name][2]
    out.update(
        {
            "equivariant.loss_and_grads_self_ms": 1e3 * t["equivariant.loss_and_grads"][1],
            "equivariant.loss_and_grads_calls": steps,
            "equivariant.optimizer_ms": 1e3 * train_self / steps,
            "equivariant.step_ms": 1e3 * (t["equivariant.loss_and_grads"][0] + train_self) / steps,
            "bounds.main_bound_s": t["bounds.main_bound"][0],
            "bounds.groupconv_bound_s": t["bounds.groupconv_bound"][0],
            "bounds.alternative_bound_s": t["bounds.alternative_bound"][0],
            "bounds.spectral_norm_s": t["bounds.spectral_norm"][0],
            "bounds.spectral_norm_calls": t["bounds.spectral_norm"][2],
            "cli.sweep_self_s": t[outer][1],
            "trace.cell_s": end_to_end(wl, totals, again)["cell_s"][0],
        }
    )
    return out


def setup_layers(totals: dict) -> dict:
    return {
        "datasets.sample_s": totals["datasets.sample"][0],
        "irreps.rep_build_s": totals["irreps.rep_build"][0],
        "equivariant.build_network_s": totals["equivariant.build_network"][0],
    }


def checkpoint_layers(totals: dict, size: int) -> dict:
    return {
        "ckpt_save_s": totals["equivariant.save_checkpoint"][0],
        "ckpt_load_s": totals["equivariant.load_checkpoint"][0],
        "ckpt_bytes": size,
    }


UNITS = {"_ms": "ms", "_s": "s", "_calls": "count", "_bytes": "count", "_mb": "MB"}


def unit_of(name: str) -> str:
    if name == "train_samples_per_s":
        return "1/s"
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def probe_setup(name: str, seed: int, small: bool) -> float:
    """Time one cold set-up in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", name, "--seed", str(seed)]
    if small:
        cmd.append("--small")
    done = subprocess.run(
        cmd, cwd=workloads.ROOT, capture_output=True, text=True, timeout=170, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload for at most about `seconds` (at least one repetition).

    `small` runs the shrunken workload; the smoke test uses it.
    """
    wl = workloads.WORKLOADS[name]
    if small:
        wl = workloads.shrink(wl)

    tracer = Tracer()
    check = workloads.Checks()
    agains = []
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=workloads.ROOT))
    try:
        for span_name, sites in END_TO_END_SPANS + (LAYER_SPANS if trace else ()):
            for owner, attr in sites:
                tracer.wrap(owner, attr, span_name)
        with tracer.span("setup"):
            inputs = workloads.set_up(wl, seed)
        start = time.perf_counter()
        while True:
            rep_start = time.perf_counter()
            if isinstance(wl, workloads.Wide):
                if agains:
                    with tracer.span("prep"):
                        inputs["net"] = workloads.network(inputs["spec"], wl.group, wl.widths)
                with tracer.span("rep"):
                    out = workloads.run_wide(wl, inputs, inputs["net"])
                first = len(tracer.spans)
                repeats = []
                for _ in range(EVAL_REPEATS):
                    with tracer.span("again"):
                        repeats.append(workloads.evaluate(wl, inputs, out["net"]))
                agains.append(tracer.totals_by_root("again", since=first))
                with tracer.span("check"):
                    workloads.check_wide(check, wl, inputs, out, repeats)
                trained = [(out["net"], inputs["test"].X[:2000])]
            else:
                with tracer.span("rep"):
                    out = workloads.run_grid(wl, workdir, seed)
                first = len(tracer.spans)
                repeats = []
                for _ in range(REPORT_REPEATS):
                    with tracer.span("again"):
                        repeats.append([bounds.compute_report(b) for b in out["bound_inputs"]])
                agains.append(tracer.totals_by_root("again", since=first))
                with tracer.span("check"):
                    workloads.check_grid(check, wl, out, repeats)
                trained = [(net, X) for net, X, _ in out["trained"]]
            # Start another repetition only if it should end in time.
            now = time.perf_counter()
            if now - start + (now - rep_start) > seconds:
                break
        if trace:
            # A checkpoint round trip of the last repetition's nets: one
            # sample per run, too few for a bounded end-to-end metric.
            nets = [net for net, _ in trained]
            with tracer.span("ckpt"):
                loaded, size = workloads.round_trip(nets, workdir)
            with tracer.span("check"):
                workloads.check_round_trip(check, nets, loaded, [X for _, X in trained])
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    # After the measured loop, so that untraced and traced runs measure
    # from the same state.
    setup_s = [] if trace else [probe_setup(name, seed, small) for _ in range(SETUP_REPEATS)]
    reps = tracer.totals_by_root("rep", _rebuilds_only)
    if trace:
        rows = [per_layer(wl, t, a) for t, a in zip(reps, agains)]
        rows[0].update(setup_layers(tracer.totals_by_root("setup")[0]))
        rows[0].update(checkpoint_layers(tracer.totals_by_root("ckpt")[0], size))
    else:
        rows = [end_to_end(wl, t, a) for t, a in zip(reps, agains)]
        rows[0]["setup_s"] = statistics.median(setup_s)
        rows[0]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The median over every sample of every repetition.
    metrics = {
        key: {
            "value": statistics.median(
                v for r in rows if key in r for v in (r[key] if isinstance(r[key], list) else [r[key]])
            ),
            "unit": unit_of(key),
        }
        for key in rows[0]
    }
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
        "repetitions": len(reps),
        "spans": tracer.totals(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    print("env " + json.dumps(workloads.environment()), flush=True)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"repetitions {record.pop('repetitions')}")
    # Every span of the run: inclusive seconds, self seconds and calls.
    print("spans " + json.dumps(record.pop("spans")))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
