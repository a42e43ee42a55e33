"""Layer microprobes through public calls, on a workload's own Hamiltonian.

They repeat the baseline rows of the roadmap: one `vector_field` call at
batch 1, 64 and 4096, one `shoot_residual` sweep over 64 parameter rows,
and one `rhs_eval` at 512 points.  Each reported figure is the median of
several timed repeats.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from hamdelay.cli import ExperimentConfig
from hamdelay.delaygen import generate, rhs_eval
from hamdelay.geometry import build_level
from hamdelay.hamiltonians import vector_field
from hamdelay.solvers import aligned_steps, shoot_residual
from hamdelay.transforms import DiscreteCurve


def _median_time(fn, repeats: int, inner: int) -> float:
    """Median over `repeats` of the mean time of `inner` back-to-back calls."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        samples.append((perf_counter() - t0) / inner)
    return statistics.median(samples)


def run(probe_config: dict, seed: int) -> dict:
    cfg = ExperimentConfig.from_dict(probe_config)
    ham, structured = cfg.build_hamiltonian()
    level = build_level(cfg.space, cfg.chain.level)
    rng = np.random.default_rng(seed)
    out = {}
    for batch, inner in ((1, 200), (64, 100), (4096, 5)):
        z = rng.random((batch, level.copies, cfg.space.dim))
        out[f"hamiltonians.vector_field_us.b{batch}"] = 1e6 * _median_time(
            lambda: vector_field(ham, level, z, 0.37), 5, inner
        )
    params = rng.random((64, level.copies // 2, cfg.space.dim))
    out["solvers.shoot_residual_ms.sweep"] = 1e3 * _median_time(
        lambda: shoot_residual(ham, level, params, cfg.integrator), 3, 1
    )
    descriptor = generate(structured, cfg.chain)
    n = aligned_steps(512, cfg.chain.grid_denominator())
    a, b = rng.random(cfg.space.dim), 0.1 * rng.standard_normal(cfg.space.dim)
    loop = DiscreteCurve.from_function(cfg.space, lambda t: a + b * np.sin(2 * np.pi * t), n)
    ts = (np.arange(512) + 0.5) / 512
    out["delaygen.rhs_eval_us.p512"] = 1e6 * _median_time(lambda: rhs_eval(descriptor, loop, ts), 5, 10)
    return out
