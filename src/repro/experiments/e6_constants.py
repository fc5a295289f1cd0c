"""E6 — The constants ablation (Sect. 4's simulation remark).

Paper claim: *"Simulation results show that in networks whose nodes are
uniformly distributed at random significantly smaller values suffice.
In fact, the constants are sufficiently small to yield a practically
efficient coloring algorithm."*

This is the experiment behind that sentence: we sweep the scale of the
practical constants (gamma = 2*kappa2*scale, with alpha/beta/sigma tied
as in ``Parameters.practical``) and measure the empirical failure rate
and running time, plus the theoretical constants as the reference point
(tiny instances only — their runtime explodes by design).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis import verify_run
from repro.core import Parameters, run_coloring
from repro.experiments.parallel import resolve_seeds, run_replicated_sweep
from repro.experiments.runner import Table, sweep_seeds
from repro.graphs import random_udg

__all__ = ["run"]


def _row(res) -> dict:
    """Per-run table row from a ColoringResult (shared by both paths)."""
    times = res.decision_times().astype(float)
    return {
        "ok": verify_run(res).ok,
        "t_max": float(times.max()),
        "t_mean": float(times[times >= 0].mean()) if (times >= 0).any() else -1.0,
        "gamma": res.params.gamma,
        "threshold": res.params.threshold,
    }


def _one(scale: float, seed: int, n: int, degree: float) -> dict:
    dep = random_udg(n, expected_degree=degree, seed=seed, connected=True)
    params = Parameters.for_deployment(dep, scale=scale)
    return _row(run_coloring(dep, params=params, seed=seed ^ 0xAB1A))


def _build_scenario(scale: float, n: int, degree: float) -> tuple:
    """Shared (deployment, params, wake) triple for one replicated scale."""
    dep = random_udg(n, expected_degree=degree, seed=int(scale * 100), connected=True)
    return dep, Parameters.for_deployment(dep, scale=scale), None


def run(
    *,
    quick: bool = True,
    seeds: int = 6,
    workers: int | None = None,
    replicas: int = 0,
) -> Table:
    """Run the experiment; see the module docstring for the claim.

    ``replicas > 0`` switches each scale's sweep to a replica sweep
    (:func:`~repro.experiments.parallel.run_replicated_sweep`):
    ``replicas`` protocol seeds run on the block-stepped fast path over
    **one shared deployment per scale** (built once per scenario hash)
    instead of resampling the graph per seed — the failure-rate
    estimate is then over protocol randomness only, which is the
    paper's R-trials-per-instance reading of the claim.
    """
    table = Table("E6 constants ablation (Sect. 4 simulation remark)")
    n, degree = (40, 8.0) if quick else (80, 12.0)
    scales = [0.25, 0.5, 1.0, 1.5] if quick else [0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    for scale in scales:
        if replicas > 0:
            rows = run_replicated_sweep(
                partial(_build_scenario, scale, n, degree),
                # Same child-seed derivation (and protocol-seed XOR) as
                # the per-seed path, so the two modes stay comparable.
                seeds=[s ^ 0xAB1A for s in resolve_seeds(replicas, int(scale * 100))],
                workers=workers,
                metric=_row,
            )
        else:
            rows = sweep_seeds(
                partial(_one, scale, n=n, degree=degree),
                seeds=seeds,
                master_seed=int(scale * 100),
                workers=workers,
            )
        table.add(
            regime=f"practical x{scale}",
            gamma=float(np.mean([r["gamma"] for r in rows])),
            success_rate=float(np.mean([r["ok"] for r in rows])),
            t_max=float(np.max([r["t_max"] for r in rows])),
            t_mean=float(np.mean([r["t_mean"] for r in rows])),
        )
    # Theoretical constants: one tiny instance as the reference point.
    dep = random_udg(12, expected_degree=5.0, seed=1, connected=True)
    params = Parameters.for_deployment(dep, regime="theoretical")
    res = run_coloring(dep, params=params, seed=99)
    times = res.decision_times().astype(float)
    table.add(
        regime="theoretical (n=12)",
        gamma=params.gamma,
        success_rate=float(verify_run(res).ok),
        t_max=float(times.max()),
        t_mean=float(times[times >= 0].mean()),
    )
    table.note(
        "paper: success rate climbs to ~1 well below the theoretical "
        "constants (gamma in the tens vs hundreds), at a small fraction of "
        "the theoretical running time — 'significantly smaller values suffice'"
    )
    if replicas > 0:
        table.note(
            f"replicas={replicas}: block-stepped replica sweep, one "
            "shared deployment per scale (protocol-seed randomness only)"
        )
    return table
