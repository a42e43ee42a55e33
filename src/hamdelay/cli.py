"""Command-line front end: delaygen | chords | verify | action | tau | roundtrip.

Configs are JSON (see presets/); stdout carries the report, stderr the
diagnostics.  Exit codes: 0 success, 1 a finding (bound violation, residual
over tolerance, table mismatch), 2 config errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .geometry import PhaseSpace, build_level
from .transforms import (
    DiscreteCurve,
    TransformChain,
    compare_tau_tables,
    phi_chain,
    psi_chain,
    resample,
    sup_distance,
)
from .hamiltonians import StructuredHamiltonian, lift
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
    write_chord_csv,
    write_loop_csv,
)


class ConfigError(ValueError):
    pass


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
        try:
            space = PhaseSpace(**data.get("space", {"half_dim": 1, "topology": "torus"}))
            chain = TransformChain.from_json(data.get("chain", {"steps": []}))
            integ = IntegratorConfig(int(data.get("integrator", {}).get("steps", 2**10)))
            newton = NewtonConfig(**data.get("newton", {}))
            grid_data = data.get("grid", {})
            grid = GridSpec(
                int(grid_data.get("points_per_dim", 8)),
                tuple(tuple(b) for b in grid_data["bounds"]) if "bounds" in grid_data else None,
            )
            return ExperimentConfig(
                space=space,
                chain=chain,
                hamiltonian=data.get("hamiltonian", {"kind": "structured", "structured": {"level": chain.level, "terms": []}}),
                integrator=integ,
                newton=newton,
                grid=grid,
                seed=int(data.get("seed", 0)),
                bounds=data.get("bounds", {}),
                tolerances=data.get("tolerances", {}),
                action=data.get("action", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def structured_hamiltonian(self) -> StructuredHamiltonian:
        """The Hamiltonian at the chain's level, given directly or lifted."""
        h = self.hamiltonian
        kind = h.get("kind", "structured")
        try:
            if kind == "structured":
                K = StructuredHamiltonian.from_json(h["structured"])
                if K.level != self.chain.level:
                    raise ConfigError("Hamiltonian level does not match the chain")
                return K
            if kind == "lift":
                base = StructuredHamiltonian.from_json(h["base"])
                return lift(base, self.chain, h.get("variant", "derived"))
        except (KeyError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        raise ConfigError(f"unknown hamiltonian kind {kind!r}")

    def build_hamiltonian(self):
        """(K, K) with K = structured_hamiltonian(): the older pair form, which
        the layer probes in perfbench/probes.py still unpack."""
        K = self.structured_hamiltonian()
        return K, K

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
        data = json.loads(Path(args.config).read_text())
    elif args.preset:
        ref = resources.files("hamdelay.presets").joinpath(f"{args.preset}.json")
        if not ref.is_file():
            available = sorted(p.name[:-5] for p in resources.files("hamdelay.presets").iterdir() if p.name.endswith(".json"))
            raise ConfigError(f"unknown preset {args.preset!r}; available: {', '.join(available)}")
        data = json.loads(ref.read_text())
    else:
        raise ConfigError("a config is required: --config PATH or --preset NAME")
    cfg = ExperimentConfig.from_dict(data)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.steps is not None:
        cfg.integrator = IntegratorConfig(_parse_steps(args.steps))
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
    out.mkdir(parents=True, exist_ok=True)
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
    ham = cfg.structured_hamiltonian()
    level = build_level(cfg.space, cfg.chain.level)
    steps = aligned_steps(cfg.integrator.n_steps, cfg.chain.grid_denominator()) if cfg.chain.is_affine else cfg.integrator.n_steps
    orbits = enumerate_chords(ham, level, cfg.grid, cfg.newton, IntegratorConfig(steps))
    out = _outdir(args)
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
    ham = cfg.structured_hamiltonian()
    level = build_level(cfg.space, cfg.chain.level)
    descriptor = generate(ham, cfg.chain)
    steps = aligned_steps(cfg.integrator.n_steps, cfg.chain.grid_denominator()) if cfg.chain.is_affine else cfg.integrator.n_steps
    orbits = enumerate_chords(ham, level, cfg.grid, cfg.newton, IntegratorConfig(steps))
    tol_res = float(cfg.tolerances.get("delay_residual", 1e-4))
    tol_dist = float(cfg.tolerances.get("route_distance", 1e-4))
    n_verify = int(cfg.tolerances.get("verify_nodes", 512))
    n_verify = aligned_steps(n_verify, cfg.chain.grid_denominator()) if cfg.chain.is_affine else n_verify
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
        "ok": ok,
    }
    (_outdir(args) / "verify_report.json").write_text(json.dumps(report, indent=2, default=float) + "\n")
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
        terms.append(
            (
                1.0,
                (
                    Factor(
                        0,
                        TrigSpatial(amp * (0.5 + rng.random()), freq, float(2 * np.pi * rng.random())),
                        TrigTime(0.5 * rng.random(), int(rng.integers(1, 3)), float(2 * np.pi * rng.random()), 1.0),
                    ),
                ),
            )
        )
    return StructuredHamiltonian(0, tuple(terms))


def cmd_action(args) -> int:
    cfg = _load_config(args)
    rng = np.random.default_rng(cfg.seed)
    levels = cfg.action.get("levels", [1, 2, 3])
    sweep = cfg.action.get("sweep", [2**10, 2**11, 2**12, 2**13])
    n_loops = int(cfg.action.get("loops", 3))
    amp = float(cfg.action.get("amp", 0.25))
    variants = ["derived", "printed"] if args.tau_compat else ["derived"]
    worst_order = np.inf
    records = []
    print("level  loop  N        " + "  ".join(f"gap[{v}]" for v in variants))
    for n in levels:
        chain = TransformChain.standard(n)
        for i in range(n_loops):
            f = _random_trig_loop(cfg.space, rng, amp)
            H = _random_base_hamiltonian(cfg.space, rng, amp)
            gaps = {v: [] for v in variants}
            for N in sweep:
                loop = DiscreteCurve.from_function(cfg.space, f, N)
                for v in variants:
                    gaps[v].append(pushforward_gap(H, loop, chain, variant=v))
                records.append(
                    {"level": n, "loop": i, "N": N}
                    | {f"gap_{v}": gaps[v][-1] for v in variants}
                )
                row = f"{n:>5}  {i:>4}  {N:>7}  " + "  ".join(f"{gaps[v][-1]:.3e}" for v in variants)
                print(row)
            usable = [(np.log(N), np.log(g)) for N, g in zip(sweep, gaps["derived"]) if g > 1e-13]
            if len(usable) >= 2:
                xs, ys = np.array([u[0] for u in usable]), np.array([u[1] for u in usable])
                order = -np.polyfit(xs, ys, 1)[0]
                worst_order = min(worst_order, order)
                records.append({"level": n, "loop": i, "order": order})
                print(f"{n:>5}  {i:>4}  observed order {order:.2f}")
    out = _outdir(args)
    (out / "action_gaps.json").write_text(json.dumps(records, indent=2, default=float) + "\n")
    if args.tau_compat:
        print("tau-variant comparison (printed recursion vs composed maps):")
        for n in levels:
            mism = [r["copy"] for r in compare_tau_tables(n) if not r["match"]]
            print(f"  n={n}: mismatched copies {mism if mism else 'none'}")
    if worst_order < 1.5:
        print(f"FINDING: observed convergence order {worst_order:.2f} < 1.5")
        return 1
    print(f"worst observed order {worst_order:.2f}")
    return 0


def cmd_tau(args) -> int:
    n = args.level
    chain = TransformChain.standard(n)
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
    f = _random_trig_loop(cfg.space, rng, float(cfg.action.get("amp", 0.25)))
    den = cfg.chain.grid_denominator() if cfg.chain.is_affine else 1
    n = aligned_steps(int(cfg.action.get("roundtrip_nodes", 384)), den)
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


def main(argv=None) -> int:
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

    args = parser.parse_args(argv)
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
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
