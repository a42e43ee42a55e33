"""Command-line front end: delaygen | chords | verify | action | tau | roundtrip.

Configs are JSON (see presets/); stdout carries the report, stderr the
diagnostics.  Exit codes: 0 success, 1 a finding (bound violation, residual
over tolerance, no chord to verify, table mismatch), 2 config errors,
including step and node counts above geometry.MAX_NODES.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np

from .geometry import MAX_LEVEL, MAX_NODES, PhaseSpace, build_level
from .transforms import (
    DiscreteCurve,
    TransformChain,
    compare_tau_tables,
    phi_chain,
    psi_chain,
    resample,
    sup_distance,
)
from .hamiltonians import StructuredHamiltonian, _finite, _integer, lift
from .delaygen import generate, render
from .action import pushforward_gap
from .solvers import (
    GridSpec,
    IntegratorConfig,
    NewtonConfig,
    SolveFailure,
    aligned_steps,
    delay_residual,
    enumerate_chords,
    pullback_chord,
    solve_periodic_delay,
    stencil_segments,
    write_chord_csv,
    write_loop_csv,
)


class ConfigError(ValueError):
    pass


@contextmanager
def _config_errors():
    """Reports a malformed or out-of-range config value as a ConfigError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _section(data: dict, name: str, default=None) -> dict:
    """Section name of the config, default (an empty one) if absent; a given one must be an object."""
    section = data.get(name, default or {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object, got {section!r}")
    return section


def _action_settings(data: dict) -> dict:
    """The action section, defaults filled and integer fields as ints; rejects
    values that would crash the sweep or leave no convergence order to measure."""
    defaults = {"levels": [1, 2, 3], "sweep": [2**10, 2**11, 2**12, 2**13], "loops": 3, "amp": 0.25, "roundtrip_nodes": 384}
    out = defaults | data
    for key, distinct, maximum in (("levels", 1, MAX_LEVEL), ("sweep", 2, MAX_NODES)):
        if not isinstance(out[key], list):
            raise ConfigError(f"action.{key} must be a list, got {out[key]!r}")
        out[key] = [_integer(n, f"action.{key} entry", 1, maximum) for n in out[key]]
        if len(set(out[key])) < distinct:
            raise ConfigError(f"action.{key} needs at least {distinct} distinct values, got {out[key]!r}")
    out["loops"] = _integer(out["loops"], "action.loops", 1)
    out["roundtrip_nodes"] = _integer(out["roundtrip_nodes"], "action.roundtrip_nodes", 1, MAX_NODES)
    _finite(out["amp"], "action.amp")
    return out


def _tolerance_settings(data: dict) -> dict:
    """The tolerances section with its defaults filled and verify_nodes as
    an int; the two verify tolerances must be finite and positive, so no
    value passes or fails every run regardless of the chords."""
    out = {"delay_residual": 1e-4, "route_distance": 1e-4, "verify_nodes": 512} | data
    for key in ("delay_residual", "route_distance"):
        if not _finite(out[key], f"tolerances.{key}") > 0:
            raise ConfigError(f"tolerances.{key} must be > 0, got {out[key]!r}")
    out["verify_nodes"] = _integer(out["verify_nodes"], "tolerances.verify_nodes", 1, MAX_NODES)
    return out


@dataclass
class ExperimentConfig:
    space: PhaseSpace
    chain: TransformChain
    hamiltonian: dict
    integrator: IntegratorConfig
    newton: NewtonConfig
    grid: GridSpec
    seed: int
    bounds: dict
    tolerances: dict
    action: dict

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        """Parses each section once, through _section, _integer and _finite, and fills its defaults."""
        with _config_errors():
            space_data = dict(_section(data, "space", {"half_dim": 1, "topology": "torus"}))
            if "half_dim" in space_data:
                space_data["half_dim"] = _integer(space_data["half_dim"], "space.half_dim", 1)
            space = PhaseSpace(**space_data)
            chain = TransformChain.from_json(_section(data, "chain", {"steps": []}))
            steps = _integer(_section(data, "integrator").get("steps", 2**10), "integrator.steps", maximum=MAX_NODES)
            newton = NewtonConfig(**_section(data, "newton"))
            grid_data = _section(data, "grid")
            grid = GridSpec(
                _integer(grid_data.get("points_per_dim", 8), "grid.points_per_dim"),
                tuple(tuple(b) for b in grid_data["bounds"]) if "bounds" in grid_data else None,
            )
            return ExperimentConfig(
                space=space,
                chain=chain,
                hamiltonian=_section(data, "hamiltonian", {"kind": "structured", "structured": {"level": chain.level, "terms": []}}),
                integrator=IntegratorConfig(steps),
                newton=newton,
                grid=grid,
                seed=_integer(data.get("seed", 0), "seed", 0, math.inf),
                bounds={name: _integer(b, f"bounds.{name}", 0) for name, b in _section(data, "bounds").items()},
                tolerances=_tolerance_settings(_section(data, "tolerances")),
                action=_action_settings(_section(data, "action")),
            )

    def structured_hamiltonian(self) -> StructuredHamiltonian:
        """The Hamiltonian at the chain's level, given directly or lifted;
        every trig freq and poly exponent list needs one entry per coordinate."""
        h = self.hamiltonian
        kind = h.get("kind", "structured")
        with _config_errors():
            if kind == "structured":
                K = StructuredHamiltonian.from_json(h["structured"])
                K.check_dim(self.space.dim)
                if K.level != self.chain.level:
                    raise ConfigError("Hamiltonian level does not match the chain")
                return K
            if kind == "lift":
                base = StructuredHamiltonian.from_json(h["base"])
                base.check_dim(self.space.dim)
                return lift(base, self.chain, h.get("variant", "derived"))
        raise ConfigError(f"unknown hamiltonian kind {kind!r}")

    def build_hamiltonian(self):
        """(K, K) with K = structured_hamiltonian(): the older pair form, which
        the layer probes in perfbench/probes.py still unpack."""
        K = self.structured_hamiltonian()
        return K, K

    def aligned_nodes(self, n: int) -> int:
        """Smallest node count >= n that puts every breakpoint of an affine
        chain on a node; n itself for other chains, whose breakpoints must
        then lie on its nodes.  A grid that misses a breakpoint, or breakpoint
        denominators that lift the count above MAX_NODES, is a config error."""
        if not self.chain.is_affine:
            with _config_errors():
                self.chain.table.nodes(n)
            return n
        nodes = aligned_steps(n, self.chain.grid_denominator())
        if nodes > MAX_NODES:
            raise ConfigError(f"the chain's breakpoints need {nodes} grid nodes, more than {MAX_NODES}")
        return nodes

    def check_seed_bounds(self) -> None:
        """Chord scans seed k^P grid points, k = grid.points_per_dim, over
        the P = 2^(n-1) * dim diagonal parameters: at most MAX_NODES of them.
        Plane scans seed between grid.bounds: one [lo, hi] pair of finite
        numbers per diagonal parameter."""
        k, want = self.grid.points_per_dim, 2 ** (self.chain.level - 1) * self.space.dim
        # k >= 2 seeds at least 2^P points, so P beyond MAX_NODES' bit length
        # is over the limit whatever k, and the power stays small
        if k ** min(want, MAX_NODES.bit_length()) > MAX_NODES:
            raise ConfigError(f"grid.points_per_dim {k} seeds {k}^{want} points over {want} parameters, more than {MAX_NODES}")
        if self.space.topology != "plane":
            return
        bounds = self.grid.bounds
        if bounds is None or len(bounds) != want:
            got = "none" if bounds is None else len(bounds)
            raise ConfigError(f"plane chord scans need grid.bounds with {want} [lo, hi] pairs, got {got}")
        with _config_errors():
            for pair in bounds:
                if len(pair) != 2:
                    raise ConfigError(f"grid.bounds entries must be [lo, hi] pairs, got {list(pair)!r}")
                for x in pair:
                    _finite(x, "grid.bounds entry")

    def torus_bounds(self) -> dict:
        """Orbit-count lower bounds; torus defaults derive from the dimension."""
        out = dict(self.bounds)
        if self.space.topology == "torus":
            d = self.space.dim
            out.setdefault("cuplength_plus_1", d + 1)
            out.setdefault("betti_sum", 2**d)
        return out


def _load_config(args) -> ExperimentConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        source = Path(args.config)
    elif args.preset:
        source = resources.files("hamdelay.presets").joinpath(f"{args.preset}.json")
        if not source.is_file():
            available = sorted(p.name[:-5] for p in resources.files("hamdelay.presets").iterdir() if p.name.endswith(".json"))
            raise ConfigError(f"unknown preset {args.preset!r}; available: {', '.join(available)}")
    else:
        raise ConfigError("a config is required: --config PATH or --preset NAME")
    try:
        data = json.loads(source.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {source}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {source} must hold a JSON object, got {type(data).__name__}")
    cfg = ExperimentConfig.from_dict(data)
    with _config_errors():
        if args.seed is not None:
            cfg.seed = _integer(args.seed, "--seed", 0, math.inf)
        if args.steps is not None:
            cfg.integrator = IntegratorConfig(_integer(_parse_steps(args.steps), "--steps", maximum=MAX_NODES))
        if args.grid is not None:
            cfg.grid = GridSpec(args.grid, cfg.grid.bounds)
    return cfg


def _parse_steps(text: str) -> int:
    if text.startswith("2^-"):
        return 2 ** int(text[3:])
    if text.startswith("2^"):
        return 2 ** int(text[2:])
    return int(text)


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out {out} as an output directory: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_delaygen(args) -> int:
    cfg = _load_config(args)
    descriptor = generate(cfg.structured_hamiltonian(), cfg.chain)
    out = _outdir(args)
    (out / "descriptor.json").write_text(render(descriptor, "json") + "\n")
    (out / "descriptor.txt").write_text(render(descriptor, "text") + "\n")
    (out / "descriptor.tex").write_text(render(descriptor, "latex") + "\n")
    print(f"wrote {len(descriptor.segments)} segment rows to {out}/descriptor.{{json,txt,tex}}")
    print(render(descriptor, "text"))
    return 0


def cmd_chords(args) -> int:
    cfg = _load_config(args)
    if cfg.chain.level < 1:
        raise ConfigError("chord enumeration needs a chain of length >= 1")
    cfg.check_seed_bounds()
    ham = cfg.structured_hamiltonian()
    level = build_level(cfg.space, cfg.chain.level)
    steps = cfg.aligned_nodes(cfg.integrator.n_steps)
    out = _outdir(args)
    orbits = enumerate_chords(ham, level, cfg.grid, cfg.newton, IntegratorConfig(steps))
    (out / "orbitset.json").write_text(orbits.to_json() + "\n")
    for i, chord in enumerate(orbits.members):
        write_chord_csv(out / f"chord_{i:03d}.csv", chord)
        loop = pullback_chord(chord, cfg.chain)
        write_loop_csv(out / f"loop_{i:03d}.csv", loop)
    print(f"chords found: {orbits.count()}  (degenerate: {orbits.degenerate})")
    print(orbits.to_json())
    if orbits.degenerate:
        print("degenerate instance: bounds check skipped")
        return 0
    failed = False
    for name, bound in sorted(cfg.torus_bounds().items()):
        ok = orbits.count() >= bound
        print(f"bound {name} = {bound}: count {orbits.count()} {'>=' if ok else '<'} {bound} {'ok' if ok else 'VIOLATED'}")
        failed = failed or not ok
    return 1 if failed else 0


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    if cfg.chain.level < 1:
        raise ConfigError("verification needs a chain of length >= 1")
    cfg.check_seed_bounds()
    ham = cfg.structured_hamiltonian()
    level = build_level(cfg.space, cfg.chain.level)
    descriptor = generate(ham, cfg.chain)
    steps = cfg.aligned_nodes(cfg.integrator.n_steps)
    try:
        stencil_segments(descriptor, steps)  # pulled-back loops share the chord grid
    except ValueError as exc:
        raise ConfigError(f"{steps} integrator steps: {exc}") from exc
    n_verify = cfg.aligned_nodes(cfg.tolerances["verify_nodes"])
    out = _outdir(args)
    orbits = enumerate_chords(ham, level, cfg.grid, cfg.newton, IntegratorConfig(steps))
    tol_res = float(cfg.tolerances["delay_residual"])
    tol_dist = float(cfg.tolerances["route_distance"])
    print(f"verifying {orbits.count()} chords (delay residual tol {tol_res:g}, route tol {tol_dist:g})")
    worst_res, worst_dist = 0.0, 0.0
    rows = []
    for i, chord in enumerate(orbits.members):
        loop = pullback_chord(chord, cfg.chain)
        res = delay_residual(descriptor, loop)
        seed = resample(loop, n_verify)
        sol = solve_periodic_delay(descriptor, seed, NewtonConfig(tol=1e-9))
        if isinstance(sol, SolveFailure):
            print(f"chord {i}: delay residual {res:.3e}, periodic solve FAILED ({sol.reason})")
            rows.append({"chord": i, "delay_residual": res, "failure": sol.reason})
            worst_dist = np.inf
            continue
        dist = sup_distance(sol, seed)
        worst_res, worst_dist = max(worst_res, res), max(worst_dist, dist)
        rows.append({"chord": i, "delay_residual": res, "route_distance": dist})
        print(f"chord {i}: delay residual {res:.3e}, two-route distance {dist:.3e}")
    print(f"max delay residual {worst_res:.3e}, max route distance {worst_dist:.3e}")
    ok = worst_res <= tol_res and worst_dist <= tol_dist
    report = {
        "chords": rows,
        "max_delay_residual": worst_res,
        "max_route_distance": worst_dist,
        "tolerances": {"delay_residual": tol_res, "route_distance": tol_dist},
    }
    if not rows:  # nothing verified is a finding, not a pass
        failures = orbits.diagnostics["failures"]
        print("no chord to verify; seed failures: " + ", ".join(f"{k} {v}" for k, v in failures.items()))
        report["seed_failures"] = failures
        ok = False
    report["ok"] = ok
    (out / "verify_report.json").write_text(json.dumps(report, indent=2, default=float) + "\n")
    return 0 if ok else 1


def _random_trig_loop(space: PhaseSpace, rng, amp: float):
    a = amp * rng.standard_normal((2, space.dim))
    b = amp * rng.standard_normal((2, space.dim))
    c = rng.random(space.dim)

    def f(t):
        out = c.copy()
        for k in (1, 2):
            out = out + a[k - 1] / k**2 * np.cos(2 * np.pi * k * t) + b[k - 1] / k**2 * np.sin(2 * np.pi * k * t)
        return out

    return f


def _random_base_hamiltonian(space: PhaseSpace, rng, amp: float) -> StructuredHamiltonian:
    from .hamiltonians import Factor, TrigSpatial, TrigTime

    terms = []
    for _ in range(2):
        freq = tuple(int(x) for x in rng.integers(-2, 3, size=space.dim))
        spatial = TrigSpatial(amp * (0.5 + rng.random()), freq, float(2 * np.pi * rng.random()))
        time = TrigTime(0.5 * rng.random(), int(rng.integers(1, 3)), float(2 * np.pi * rng.random()), 1.0)
        terms.append((1.0, (Factor(0, spatial, time),)))
    return StructuredHamiltonian(0, tuple(terms))


def cmd_action(args) -> int:
    cfg = _load_config(args)
    rng = np.random.default_rng(cfg.seed)
    levels, sweep, n_loops = cfg.action["levels"], cfg.action["sweep"], cfg.action["loops"]
    amp = float(cfg.action["amp"])
    variants = ("derived", "printed") if args.tau_compat else ("derived",)
    out = _outdir(args)
    worst_order = np.inf
    unmeasured, no_gap = [], []
    records = []
    print("level  loop  N        " + "  ".join(f"gap[{v}]" for v in variants))
    for n in levels:
        chain = TransformChain.standard(n)
        for i in range(n_loops):
            f = _random_trig_loop(cfg.space, rng, amp)
            H = _random_base_hamiltonian(cfg.space, rng, amp)
            derived = []  # (N, the derived gap) per N that gave gaps
            for N in sweep:
                loop = DiscreteCurve.from_function(cfg.space, f, N)
                try:
                    gaps = pushforward_gap(H, loop, chain, variant=variants)
                except ValueError as exc:  # a grid that misses a breakpoint, or a NonContractibleError
                    no_gap.append((n, i, N))
                    print(f"{n:>5}  {i:>4}  {N:>7}  no gap: {exc}")
                    continue
                derived.append((N, gaps[0]))
                records.append({"level": n, "loop": i, "N": N} | {f"gap_{v}": g for v, g in zip(variants, gaps)})
                print(f"{n:>5}  {i:>4}  {N:>7}  " + "  ".join(f"{g:.3e}" for g in gaps))
            usable = [(np.log(N), np.log(g)) for N, g in derived if g > 1e-13]
            if len(usable) >= 2:
                xs, ys = np.array([u[0] for u in usable]), np.array([u[1] for u in usable])
                order = -np.polyfit(xs, ys, 1)[0]
                worst_order = min(worst_order, order)
                records.append({"level": n, "loop": i, "order": order})
                print(f"{n:>5}  {i:>4}  observed order {order:.2f}")
            else:
                unmeasured.append((n, i))
                print(f"{n:>5}  {i:>4}  no observed order: fewer than two gaps above 1e-13")
    (out / "action_gaps.json").write_text(json.dumps(records, indent=2, default=float) + "\n")
    if args.tau_compat:
        print("tau-variant comparison (printed recursion vs composed maps):")
        for n in levels:
            mism = [r["copy"] for r in compare_tau_tables(n) if not r["match"]]
            print(f"  n={n}: mismatched copies {mism if mism else 'none'}")
    if no_gap:
        print(f"FINDING: no gap at (level, loop, N) {no_gap}: a misaligned grid or a lift that does not close")
        return 1
    if unmeasured:
        print(f"FINDING: no convergence order measured for (level, loop) {unmeasured}")
        return 1
    if worst_order < 1.5:
        print(f"FINDING: observed convergence order {worst_order:.2f} < 1.5")
        return 1
    print(f"worst observed order {worst_order:.2f}")
    return 0


def cmd_tau(args) -> int:
    n = args.level
    if not 1 <= n <= MAX_LEVEL:
        raise ConfigError(f"--level must be between 1 and {MAX_LEVEL}, got {n}")
    if args.copy is not None and not 1 <= args.copy <= 2**n:
        raise ConfigError(f"--copy must be between 1 and {2**n} at level {n}, got {args.copy}")
    rows = compare_tau_tables(n)
    if args.copy is not None:
        rows = [rows[args.copy - 1]]
    mismatch = False
    for row in rows:
        mark = "ok" if row["match"] else "MISMATCH"
        print(f"copy {row['copy']}: derived {row['derived']}   printed {row['printed']}   [{mark}]")
        mismatch = mismatch or not row["match"]
    if mismatch:
        print("note: the printed halving recursion disagrees with the composed maps on the flagged copies")
    return 0


def cmd_roundtrip(args) -> int:
    cfg = _load_config(args)
    rng = np.random.default_rng(cfg.seed)
    f = _random_trig_loop(cfg.space, rng, float(cfg.action["amp"]))
    n = cfg.aligned_nodes(cfg.action["roundtrip_nodes"])
    loop = DiscreteCurve.from_function(cfg.space, f, n)
    back = phi_chain(cfg.chain, psi_chain(cfg.chain, loop))
    exact = bool(np.array_equal(back.samples, loop.samples))
    err = sup_distance(back, loop)
    print(f"roundtrip at N={n}: bitwise-exact at nodes: {exact}, sup error {err:.3e}")
    loop2 = DiscreteCurve.from_function(cfg.space, f, 2 * n)
    err2 = sup_distance(phi_chain(cfg.chain, psi_chain(cfg.chain, loop2)), loop2)
    print(f"roundtrip at N={2*n}: sup error {err2:.3e}")
    # second order or better: doubling N must shrink the error at least 4x
    # (up to slack), unless it already sits at the exactness floor
    ok = exact or err <= 1e-9 or err2 <= err / 4 * 1.5 + 1e-12
    if not ok:
        print("FINDING: roundtrip error does not contract at second order")
        return 1
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="hamdelay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON experiment config")
    common.add_argument("--preset", help="name of a packaged preset config")
    common.add_argument("--out", default="out", help="output directory (default: ./out)")
    common.add_argument("--seed", type=int, default=None, help="RNG seed override")
    common.add_argument("--steps", default=None, help="integrator steps, e.g. 1024 or 2^-10")
    common.add_argument("--grid", type=int, default=None, help="seed-grid points per parameter")

    sub.add_parser("delaygen", parents=[common], help="generate the symbolic delay equation")
    sub.add_parser("chords", parents=[common], help="enumerate chords and check count bounds")
    sub.add_parser("verify", parents=[common], help="pullback / delay-residual / two-route check")
    p_action = sub.add_parser("action", parents=[common], help="pushforward-identity sweep")
    p_action.add_argument("--tau-compat", action="store_true", help="also evaluate the printed tau recursion")
    p_tau = sub.add_parser("tau", help="print copy time maps, both variants")
    p_tau.add_argument("--level", type=int, required=True)
    p_tau.add_argument("--copy", type=int, default=None, help="1-based copy index (default: all)")
    sub.add_parser("roundtrip", parents=[common], help="transform round-trip check")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a patched cmd_* is the handler that runs
    try:
        handler = {
            "delaygen": cmd_delaygen,
            "chords": cmd_chords,
            "verify": cmd_verify,
            "action": cmd_action,
            "tau": cmd_tau,
            "roundtrip": cmd_roundtrip,
        }[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
