"""Benchmark for the hamdelay chord/delay pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload chord-scan --seed 0 --seconds 25 --trace 0

It builds one workload's operations from `--seed` (see workloads.py),
writes each config to `perfbench/.work/`, and drives `hamdelay.cli.main`
in this process on those files, round after round, until `--seconds` have
been spent measuring.  Every operation's result is checked (checks.py); an
operation that raises, exits 2 or fails a check counts as failed.

`--trace 0` reports the end-to-end metrics: pass_s (one pass over the
operations, each operation's median over the rounds, summed), op_p50_s
(median time of one operation), setup_s (fresh-interpreter import plus
config generation and warm-up, median of three each), peak_rss_mb and
ok_frac (operations passed over attempted).  The three times are CPU
seconds scaled to a reference host speed by a probe sampled while they run
(hostspeed.py); the raw wall and CPU times are printed beside them.  The
per-operation start, end and CPU times and the probe samples go to
`perfbench/.work/<workload>-full/times-seed<n>.json`.

`--trace 1` alternates untraced and traced rounds and reports the per-layer
metrics: span times and counts at each module boundary (tracing.py), the
layer microprobes (probes.py), the tracing overhead, and a determinism
check of call counts and fingerprints across the rounds.  The spans are
written to `perfbench/.work/trace-<workload>.json`.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time

# Pin BLAS and OpenMP pools before numpy loads; one thread per process
# keeps timings steady on small machines.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Keep this process, and the interpreters it starts for the import timing, on
# one CPU, so that an operation and the host-speed probes around it run on the
# same core (see hostspeed.py).
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
MIN_ROUNDS = 3

END_TO_END_UNITS = {"pass_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}

IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.process_time()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hamdelay.cli\n"
    "print(time.process_time() - t0)\n"
)


def per_layer_unit(name: str) -> str:
    if "_us." in name:
        return "us"
    if "_ms." in name:
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_per_seed") or name.endswith("_per_solved") or name.endswith("_per_solve"):
        return "ratio"
    return "count"


def import_hamdelay():
    """Imports the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import hamdelay.cli

    if Path(hamdelay.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"hamdelay was imported from {hamdelay.cli.__file__}, not from {SRC}")
    return hamdelay.cli


def fresh_import_times() -> tuple[float, float, float]:
    """Imports hamdelay.cli in a new interpreter (numpy and scipy included);
    returns (start, end, CPU seconds of the import)."""
    t0 = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    return t0, perf_counter(), float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs one workload's operations and checks their results."""

    def __init__(self, cli, checks, name: str, seed: int, scale: str, reference: list | None):
        self.cli, self.checks = cli, checks
        self.name, self.seed, self.scale = name, seed, scale
        self.reference = reference
        self.tracer = None
        self.dir = WORK / f"{name}-{scale}"
        self.out = self.dir / "out"

    def write_configs(self, ops, tag: str) -> list[Path]:
        self.dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, op in enumerate(ops):
            path = self.dir / f"{tag}{i:03d}.json"
            path.write_text(json.dumps(op.config, indent=1) + "\n")
            paths.append(path)
        return paths

    def call(self, op, path: Path, op_id: int):
        """One CLI call; returns (times, exit code or None if it raised, stdout, error),
        where times is (start, end, CPU seconds of this thread)."""
        for f in self.checks.OUTPUT_FILES.values():
            (self.out / f).unlink(missing_ok=True)
        argv = [op.command, "--config", str(path), "--out", str(self.out), *op.flags]
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, ""
        span = None
        if self.tracer is not None:
            self.tracer.op_id = op_id
            span = self.tracer.begin("cli.op")
        t0, c0 = perf_counter(), thread_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse errors end in SystemExit
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a failed operation is counted, never re-raised
            error = f"{type(exc).__name__}: {exc}"
        times = (t0, perf_counter(), thread_time() - c0)
        if span is not None:
            self.tracer.end(span)
            self.tracer.counts["cli.raised" if code is None else f"cli.exit.{code}"] += 1
        return times, code, stdout.getvalue(), error or stderr.getvalue().strip()

    def check(self, op, op_id: int, code, stdout: str, error: str):
        """Returns (fingerprint or None, list of problems)."""
        if code is None:
            return None, [f"raised {error}"]
        try:
            fp = self.checks.fingerprint(op, stdout, self.out)
        except (OSError, ValueError, KeyError, AttributeError) as exc:
            return None, [f"exit code {code}, no readable result ({type(exc).__name__}: {exc}) {error}"]
        problems = self.checks.rule_failures(op, code, stdout, fp)
        if self.reference is not None:
            if op_id < len(self.reference):
                problems += self.checks.reference_failures(op, fp, self.reference[op_id])
            else:
                problems.append("no reference fingerprint for this operation")
        return fp, problems

    def round(self, ops, paths):
        """One pass over the operations: (op times, fingerprints, failures)."""
        times, fps, failures = [], [], []
        for i, (op, path) in enumerate(zip(ops, paths)):
            op_times, code, stdout, error = self.call(op, path, i)
            fp, problems = self.check(op, i, code, stdout, error)
            times.append(op_times)
            fps.append(fp)
            if problems:
                failures.append(f"op {i} ({op.family} {op.command}): " + "; ".join(problems))
        return times, fps, failures


def main(argv=None) -> int:
    from_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the smoke check")
    parser.add_argument("--reference", type=Path, default=REFERENCE, help="reference fingerprints for the default seed")
    parser.add_argument("--write-reference", action="store_true", help="record one round's fingerprints as the reference")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    cli = import_hamdelay()
    in_process_import_s = perf_counter() - t0
    sys.path.insert(0, str(BENCH))
    import checks
    import hostspeed
    import numpy
    import scipy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    key = f"{args.workload}/{args.scale}"
    references = json.loads(args.reference.read_text()) if args.reference.is_file() else {}
    reference = references.get(key, []) if args.seed == DEFAULT_SEED and not args.write_reference else None
    runner = Runner(cli, checks, args.workload, args.seed, args.scale, reference)

    clock = hostspeed.HostClock()
    clock.start()
    try:
        # set-up, several times: fresh-interpreter import, config generation, warm-up;
        # each in CPU seconds at the reference host speed (hostspeed.py)
        imports = [fresh_import_times() for _ in range(SETUP_REPEATS)]
        prepares = []
        for _ in range(SETUP_REPEATS):
            t0, c0 = perf_counter(), thread_time()
            workload = workloads.build(args.workload, args.seed, args.scale)
            paths = runner.write_configs(workload.ops, "op")
            warm = workloads.build(args.workload, args.seed, "tiny").ops
            warm_paths = runner.write_configs(warm, "warm")
            for i, (op, path) in enumerate(zip(warm, warm_paths)):
                runner.call(op, path, i)
            prepares.append((t0, perf_counter(), thread_time() - c0))
        import_s = [clock.scaled(*t) for t in imports]
        prepare_s = [clock.scaled(*t) for t in prepares]
        setup_s = statistics.median(import_s) + statistics.median(prepare_s)
        ops = workload.ops

        if args.write_reference:
            _, fps, failures = runner.round(ops, paths)
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            references[key] = fps
            args.reference.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
            print(f"wrote {len(fps)} reference fingerprints for {key} to {args.reference}")
            return 0

        print(f"workload {args.workload} ({args.scale}), seed {args.seed}: {len(ops)} operations per round")
        print(
            f"python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"BLAS/OpenMP threads {BLAS_THREADS}, nproc {os.cpu_count()}, pinned to CPU {sorted(os.sched_getaffinity(0))}"
        )
        print(f"in-process import {in_process_import_s:.3f} s; set-up {SETUP_REPEATS}x: import {import_s}, prepare {prepare_s}")
        if args.trace:
            clock.stop()  # per-layer times are raw; keep the probe out of the spans
            result = traced(runner, workload, paths, args)
        else:
            result = untraced(runner, clock, ops, paths, args.seconds, setup_s)
        print(f"total benchmark time {perf_counter() - from_start:.1f} s", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        clock.stop()


def _rounds(run_round, seconds: float, minimum: int) -> None:
    """Calls run_round until the next round would overrun `seconds`."""
    t_start = perf_counter()
    walls = []
    while True:
        t0 = perf_counter()
        run_round()
        walls.append(perf_counter() - t0)
        elapsed = perf_counter() - t_start
        if len(walls) >= minimum and elapsed + statistics.median(walls) > seconds:
            return


def _pass(per_op: list[list[tuple]], seconds) -> float:
    """Time of one pass over all operations: each operation's median over the
    rounds, summed, so a slow moment hits one sample, not the sum.
    `seconds` maps one (start, end, CPU s) sample to the time to use."""
    return sum(statistics.median(seconds(*t) for t in times) for times in per_op)


def _wall(t0: float, t1: float, cpu: float) -> float:
    return t1 - t0


def _report_failures(failures: list[str]) -> None:
    for line in failures:
        print(f"FAILED {line}")


def untraced(runner, clock, ops, paths, seconds: float, setup_s: float) -> dict:
    import hostspeed

    per_op = [[] for _ in ops]
    failures = []

    def one():
        times, _, failed = runner.round(ops, paths)
        for samples, t in zip(per_op, times):
            samples.append(t)
        failures.extend(failed)

    _rounds(one, seconds, MIN_ROUNDS)
    _report_failures(failures)
    clock.stop()
    times_file = {"start_end_cpu": per_op, "probes": clock.samples}
    (runner.dir / f"times-seed{runner.seed}.json").write_text(json.dumps(times_file) + "\n")
    op_times = [clock.scaled(*t) for samples in per_op for t in samples]
    attempted, failed = len(op_times), len(failures)
    metrics = {
        "pass_s": _pass(per_op, clock.scaled),
        "op_p50_s": statistics.median(op_times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    rounds = len(per_op[0])
    print(f"rounds {rounds}, operations timed {attempted} (op_p50_s sample count), failed {failed}")
    print("round walls " + " ".join(f"{sum(_wall(*s[r]) for s in per_op):.3f}" for r in range(rounds)) + " s")
    probes = [c for _, _, c in clock.samples]
    print(
        f"one pass, raw: wall {_pass(per_op, _wall):.4f} s, CPU {_pass(per_op, lambda t0, t1, c: c):.4f} s; "
        f"host probe median {1e3 * statistics.median(probes):.3f} ms over {len(probes)} probes "
        f"(reference {1e3 * hostspeed.REFERENCE_PROBE_S:g} ms)"
    )
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def _largest_solver_share(m: dict, name: str) -> bool:
    solver_times = ("solvers.integrate.s", "solvers.shoot_residual.s", "solvers.newton.self_s", "solvers.solve_periodic_delay.s")
    return m[name] >= max(m[k] for k in solver_times)


# What each workload was chosen to exercise, checked on every traced run.
TRAFFIC = {
    "chord-scan": (
        "solvers.integrate.s is the largest solver share",
        lambda m: _largest_solver_share(m, "solvers.integrate.s"),
    ),
    "tower-scan": (
        "solvers.shoot_residual.s is most of the traced wall and solvers.integrate.s under half of it",
        lambda m: m["solvers.shoot_residual.s"] > 0.5 * m["bench.wall_traced_s"]
        and m["solvers.integrate.s"] < 0.5 * m["solvers.shoot_residual.s"],
    ),
    "delay-verify": (
        "solvers.solve_periodic_delay.s is the largest solver share",
        lambda m: _largest_solver_share(m, "solvers.solve_periodic_delay.s"),
    ),
    "transform-action": (
        "no integrate, shoot_residual or rhs_eval calls",
        lambda m: m["solvers.integrate.calls"] == m["solvers.shoot_residual.calls"] == m["delaygen.rhs_eval.calls"] == 0,
    ),
}


def traced(runner, workload, paths, args) -> dict:
    import probes
    import tracing

    ops = workload.ops
    probe = probes.run(workload.probe, args.seed)
    tracer = tracing.Tracer()
    plain, with_spans = [[] for _ in ops], [[] for _ in ops]
    failures, rounds, fingerprints = [], [], []

    def one():
        runner.tracer = None
        times, fps, failed = runner.round(ops, paths)
        for samples, t in zip(plain, times):
            samples.append(t)
        fingerprints.append(fps)
        failures.extend(failed)
        before = tracer.snapshot()
        tracer.install()
        runner.tracer = tracer
        try:
            times, fps, failed = runner.round(ops, paths)
        finally:
            runner.tracer = None
            tracer.uninstall()
        rounds.append(tracing.diff(tracer.snapshot(), before))
        for samples, t in zip(with_spans, times):
            samples.append(t)
        fingerprints.append(fps)
        failures.extend(failed)

    _rounds(one, args.seconds, 2)
    _report_failures(failures)
    tracer.write(WORK / f"trace-{runner.name}.json")

    per_round = [tracing.layer_metrics(*r) for r in rounds]
    metrics = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        metrics[name] = statistics.median(values) if per_layer_unit(name) == "s" else values[0]
    metrics.update(probe)
    counts = [r[0] for r in rounds]

    unstable = [
        f"round {i}: {k} = {c[k]} (round 0: {counts[0][k]})"
        for i, c in enumerate(counts)
        for k in tracing.DETERMINISM_KEYS
        if c[k] != counts[0][k]
    ]
    unstable += [
        f"op {j}: fingerprint changed between rounds"
        for j in range(len(ops))
        if any(fps[j] != fingerprints[0][j] for fps in fingerprints)
    ]
    for line in unstable:
        print(f"NONDETERMINISTIC {line}", file=sys.stderr)
    metrics["bench.nondeterministic"] = len(unstable)
    metrics["bench.rounds_traced"] = len(rounds)
    metrics["bench.wall_untraced_s"] = _pass(plain, _wall)
    metrics["bench.wall_traced_s"] = _pass(with_spans, _wall)
    metrics["bench.trace_overhead_s"] = metrics["bench.wall_traced_s"] - metrics["bench.wall_untraced_s"]

    wall = metrics["bench.wall_traced_s"]
    print(f"traced rounds {len(rounds)}, untraced rounds {len(plain[0])}, spans {len(tracer.names)}")
    for name in ("solvers.integrate.s", "solvers.shoot_residual.s", "solvers.solve_periodic_delay.s"):
        print(f"share of traced wall: {name} {metrics[name] / wall:.1%}")
    claim, holds = TRAFFIC[runner.name]
    print(f"traffic check: {claim}: {'confirmed' if holds(metrics) else 'NOT confirmed'}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {per_layer_unit(name)}")
    failed = len(failures)
    return {
        "correct": failed == 0,
        "attempted": 2 * len(rounds) * len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(metrics.items())},
    }


if __name__ == "__main__":
    sys.exit(main())
