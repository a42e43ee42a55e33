"""Workload generators: one list of `hamdelay` operations per workload.

Every operation is one CLI command on one generated JSON config.  The
configs come from `random.Random` seeded with the workload seed, so the
same seed gives the same configs; the CLI only ever sees the config file
(plus `--out`, and `--tau-compat` for action sweeps).  The ranges follow
the packaged presets named in each family's comment.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

HALVING = {"kind": "halving"}
CONST_TIME = {"kind": "const"}


@dataclass
class Op:
    """One `hamdelay <command> --config <file>` call and how to check it."""

    family: str
    command: str
    config: dict
    flags: tuple = ()
    checks: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list
    probe: dict  # config whose Hamiltonian and chain the layer microprobes use


def _trig(copy, amp, freq, phase, time=CONST_TIME):
    return {
        "copy": copy,
        "space": {"kind": "trig", "amp": amp, "freq": list(freq), "phase": phase},
        "time": time,
    }


# Each family is its packaged preset with seed-drawn perturbations: amplitudes
# and coefficients move by up to JITTER of their value, phases by up to
# PHASE_JITTER radians.  The ranges are narrow on purpose: a seed changes the
# numbers the program sees but not how much work a config costs, so runs
# with different seeds stay comparable.
JITTER = 0.05
PHASE_JITTER = 0.05


def _amp(rng, base):
    return round(base * (1.0 + rng.uniform(-JITTER, JITTER)), 9)


def _phase(rng, base=0.0):
    return round(base + rng.uniform(-PHASE_JITTER, PHASE_JITTER), 9)


def _torus_space():
    return {"half_dim": 1, "topology": "torus"}


def _structured(level, terms):
    return {"kind": "structured", "structured": {"level": level, "terms": terms}}


def _lift(terms):
    return {"kind": "lift", "base": {"level": 0, "terms": terms}, "variant": "derived"}


def _config(space, chain_steps, hamiltonian, steps, grid, **extra):
    cfg = {
        "space": space,
        "chain": {"steps": chain_steps},
        "hamiltonian": hamiltonian,
        "integrator": {"steps": steps},
        "grid": {"points_per_dim": grid},
    }
    cfg.update(extra)
    return cfg


def torus_morse_n1(rng, steps, grid):
    """torus-morse-n1: a lifted two-term Morse-type trig base on T^2."""
    terms = [
        {"coeff": 1.0, "factors": [_trig(1, _amp(rng, 0.05), f, _phase(rng))]}
        for f in ((1, 0), (0, 1))
    ]
    return _config(_torus_space(), [HALVING], _lift(terms), steps, grid)


def product_t4(rng, steps, grid, verify_nodes=512):
    """product-T4: two time-dependent products of trig factors on T^2 x T^2."""

    def time_trig(amp, phase):
        return {"kind": "trig", "amp": _amp(rng, amp), "freq": 1, "phase": _phase(rng, phase), "offset": 1.0}

    terms = [
        {
            "coeff": _amp(rng, 0.08),
            "factors": [
                _trig(1, _amp(rng, 0.3), (1, 0), _phase(rng), time_trig(0.4, 0.0)),
                _trig(2, _amp(rng, 0.3), (0, 1), _phase(rng)),
            ],
        },
        {
            "coeff": _amp(rng, 0.06),
            "factors": [
                _trig(1, _amp(rng, 0.3), (0, 1), _phase(rng, 0.9)),
                _trig(2, _amp(rng, 0.3), (1, 0), _phase(rng, 0.9), time_trig(0.3, 1.1)),
            ],
        },
    ]
    tolerances = {"delay_residual": 1e-4, "route_distance": 1e-4, "verify_nodes": verify_nodes}
    return _config(_torus_space(), [HALVING], _structured(1, terms), steps, grid, tolerances=tolerances)


def plane_oscillator(rng, steps, grid):
    """plane-oscillator: a lifted quadratic well on R^2, seeds in a box."""
    poly = {"kind": "poly", "terms": [[_amp(rng, 0.3 * math.pi), [2, 0]], [_amp(rng, 0.3 * math.pi), [0, 2]]]}
    half = _amp(rng, 0.8)
    cfg = _config(
        {"half_dim": 1, "topology": "plane"},
        [HALVING],
        _lift([{"coeff": 1.0, "factors": [{"copy": 1, "space": poly, "time": CONST_TIME}]}]),
        steps,
        grid,
        bounds={"cuplength_plus_1": 1},
    )
    cfg["grid"]["bounds"] = [[-half, half], [-half, half]]
    return cfg


def sum_n2(rng, steps, grid):
    """sum-n2: four single-copy trig terms on the level-2 halving tower."""
    freqs = ((1, 0), (0, 1), (1, 1), (1, -1))
    terms = [
        {"coeff": 1.0, "factors": [_trig(c + 1, _amp(rng, 0.1), freqs[c], _phase(rng, 0.3 * c))]}
        for c in range(4)
    ]
    return _config(_torus_space(), [HALVING, HALVING], _structured(2, terms), steps, grid)


def rr_chain_13(rng, steps, grid):
    """rr-chain-13: a product of copies 2 and 3 on the affine r = 1/3 chain."""
    factors = [_trig(2, _amp(rng, 0.2), (0, 1), _phase(rng, 0.5)), _trig(3, _amp(rng, 0.2), (1, 0), _phase(rng, 1.0))]
    affine = {"kind": "affine_r", "r": "1/3"}
    return _config(_torus_space(), [affine, affine], _structured(2, [{"coeff": 1.0, "factors": factors}]), steps, grid)


def action_sweep(rng, sweep, loops):
    """action-sweep: the pushforward-identity sweep over levels 1-3."""
    return {
        "space": _torus_space(),
        "chain": {"steps": []},
        "hamiltonian": _structured(0, []),
        "action": {"levels": [1, 2, 3], "loops": loops, "sweep": list(sweep), "amp": _amp(rng, 0.25)},
        "seed": rng.randrange(2**31),
    }


ROUNDTRIP_CHAINS = {
    1: [HALVING],
    2: [{"kind": "affine_r", "r": "1/3"}, {"kind": "affine_r", "r": "1/3"}],
    3: [HALVING, {"kind": "affine_r", "r": "2/5"}, HALVING],
}


def roundtrip_loop(rng, level, nodes):
    """A seed-drawn trig loop sent through a level-1..3 chain and back."""
    return {
        "space": _torus_space(),
        "chain": {"steps": ROUNDTRIP_CHAINS[level]},
        "action": {"amp": _amp(rng, 0.25), "roundtrip_nodes": nodes},
        "seed": rng.randrange(2**31),
    }


# ---------------------------------------------------------------------------
# the four workloads


def _chords(family, cfg):
    return Op(family, "chords", cfg, checks={"newton_tol": cfg.get("newton", {}).get("tol", 1e-10)})


def chord_scan(rng, scale):
    ops = []
    for _ in range(scale["configs"]):
        ops.append(_chords("torus-morse-n1", torus_morse_n1(rng, scale["steps"], scale["grid"])))
        ops.append(_chords("product-T4", product_t4(rng, scale["steps"], scale["grid"])))
        ops.append(_chords("plane-oscillator", plane_oscillator(rng, scale["steps"], scale["grid"])))
    return ops, ops[0].config


# Newton settings for the level-2 scans: seeds still improving after 12
# iterations, or needing more than 8 damping halvings, count as not
# converged.  With the packaged defaults (50 and 20) a few stuck seeds decide
# most of a scan's cost, and that cost swings by half between nearby configs.
TOWER_NEWTON = {"max_iter": 12, "min_damping": 2.0**-8}


def tower_scan(rng, scale):
    ops = []
    for family, make in (("sum-n2", sum_n2), ("rr-chain-13", rr_chain_13)):
        steps = scale["steps_rr"] if family == "rr-chain-13" else scale["steps"]
        for _ in range(scale[family]):
            cfg = make(rng, steps, scale["grid"])
            cfg["newton"] = dict(TOWER_NEWTON)
            ops.append(_chords(family, cfg))
    return ops, ops[0].config


def delay_verify(rng, scale):
    ops = []
    for _ in range(scale["configs"]):
        cfg = product_t4(rng, scale["steps"], scale["grid"], scale["verify_nodes"])
        ops.append(Op("product-T4", "verify", cfg, checks=dict(cfg["tolerances"])))
    return ops, ops[0].config


def transform_action(rng, scale):
    ops = []
    for _ in range(scale["configs"]):
        ops.append(Op("action-sweep", "action", action_sweep(rng, scale["sweep"], scale["loops"]), ("--tau-compat",)))
        for level in (1, 2, 3):
            ops.append(Op("roundtrip", "roundtrip", roundtrip_loop(rng, level, scale["nodes"])))
    # the microprobes need a Hamiltonian; use a lifted level-1 base like the sweep draws
    return ops, torus_morse_n1(rng, 64, 2)


WORKLOADS = {
    "chord-scan": chord_scan,
    "tower-scan": tower_scan,
    "delay-verify": delay_verify,
    "transform-action": transform_action,
}

# Sizes per workload.  "full" is what the benchmark measures; "tiny" is the
# warm-up before timing and the benchmark's own smoke check.
SCALES = {
    "full": {
        "chord-scan": {"configs": 2, "steps": 32, "grid": 4},
        "tower-scan": {"sum-n2": 3, "rr-chain-13": 1, "steps": 8, "steps_rr": 9, "grid": 3},
        "delay-verify": {"configs": 2, "steps": 128, "grid": 1, "verify_nodes": 512},
        "transform-action": {"configs": 1, "sweep": [512, 1024, 2048], "loops": 1, "nodes": 2048},
    },
    "tiny": {
        "chord-scan": {"configs": 1, "steps": 8, "grid": 2},
        "tower-scan": {"sum-n2": 1, "rr-chain-13": 1, "steps": 4, "steps_rr": 9, "grid": 1},
        "delay-verify": {"configs": 1, "steps": 128, "grid": 1, "verify_nodes": 64},
        "transform-action": {"configs": 1, "sweep": [128, 256], "loops": 1, "nodes": 128},
    },
}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload's operations for one seed; same seed, same configs."""
    rng = random.Random(f"{name}:{seed}")
    ops, probe = WORKLOADS[name](rng, SCALES[scale][name])
    return Workload(ops, probe)
