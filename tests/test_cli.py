import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hamdelay.action
from hamdelay import cli
from hamdelay.action import pushforward_gap
from hamdelay.cli import main
from hamdelay.geometry import PhaseSpace
from hamdelay.transforms import DiscreteCurve, TransformChain

NAN, INF = float("nan"), float("inf")


def run(argv):
    return main(argv)


def test_missing_config_is_config_error(capsys):
    assert run(["delaygen"]) == 2
    assert "config" in capsys.readouterr().err


def test_unknown_preset_lists_available(capsys):
    assert run(["delaygen", "--preset", "nope"]) == 2
    err = capsys.readouterr().err
    assert "product-1423" in err


def test_delaygen_product_1423(tmp_path, capsys):
    code = run(["delaygen", "--preset", "product-1423", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote 4 segment rows" in out
    text = (tmp_path / "descriptor.txt").read_text()
    assert text.splitlines()[0] == "(1/4) v'(t) = F4[4t](v(1/2 + t)) X_F1[4t](v(t)),  t in [0, 1/4]"
    data = json.loads((tmp_path / "descriptor.json").read_text())
    assert [seg["copy"] for seg in data["segments"]] == [1, 3, 4, 2]
    assert (tmp_path / "descriptor.tex").exists()


def test_delaygen_n3_preset(tmp_path, capsys):
    code = run(["delaygen", "--preset", "product-n3-full", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "descriptor.json").read_text())
    assert [seg["copy"] for seg in data["segments"]] == [1, 5, 7, 3, 4, 8, 6, 2]
    assert all(seg["rate"] == "8" for seg in data["segments"])


def test_delaygen_lift_kind(tmp_path, capsys):
    """A lifted base Hamiltonian compiles to the base equation in disguise."""
    code = run(["delaygen", "--preset", "torus-morse-n1", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "descriptor.json").read_text())
    assert [seg["copy"] for seg in data["segments"]] == [1, 2]
    # single-factor terms: no delayed coefficients anywhere
    for seg in data["segments"]:
        assert all(not t["coefficients"] for t in seg["terms"])


def _level_zero_config(tmp_path) -> str:
    cfg = {
        "space": {"half_dim": 1, "topology": "torus"},
        "chain": {"steps": []},
        "hamiltonian": {"kind": "structured", "structured": {"level": 0, "terms": []}},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_chords_level_zero_chain_is_config_error(tmp_path, capsys):
    assert run(["chords", "--config", _level_zero_config(tmp_path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command,line",
    [("roundtrip", "bitwise-exact at nodes: True"), ("delaygen", "v'(t) = 0,  t in [0, 1]")],
    ids=["roundtrip", "delaygen"],
)
def test_level_zero_chain_has_one_segment(command, line, tmp_path, capsys):
    """The empty chain's segment table is the one entry [0, 1] with the
    identity time map, so roundtrip and delaygen run at level 0."""
    assert run([command, "--config", _level_zero_config(tmp_path), "--out", str(tmp_path / "o")]) == 0
    assert line in capsys.readouterr().out


def test_chain_beyond_max_level_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"chain": {"steps": [{"kind": "halving"}] * 13}}))
    assert run(["roundtrip", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_chords_diverging_plane_seeds_are_tallied(tmp_path, capsys):
    """Seeds that overflow on a quartic plane Hamiltonian are tallied as
    'diverged' instead of aborting the scan with a LinAlgError."""
    quartic = {"kind": "poly", "terms": [[1, [4, 0]], [1, [0, 4]]]}
    cfg = {
        "space": {"half_dim": 1, "topology": "plane"},
        "chain": {"steps": [{"kind": "halving"}]},
        "hamiltonian": {
            "kind": "lift",
            "base": {"level": 0, "terms": [{"coeff": 1.0, "factors": [{"copy": 1, "space": quartic, "time": {"kind": "const"}}]}]},
        },
        "integrator": {"steps": 64},
        "grid": {"points_per_dim": 4, "bounds": [[-50, 50], [-50, 50]]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["chords", "--config", str(path), "--out", str(tmp_path / "o")]) in (0, 1)
    summary = json.loads((tmp_path / "o" / "orbitset.json").read_text())
    assert summary["failures"]["diverged"] == 16
    assert summary["count"] == 0


def test_delaygen_zero_preset(tmp_path, capsys):
    code = run(["delaygen", "--preset", "zero-K", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "descriptor.txt").read_text()
    assert all(line.startswith("v'(t) = 0") for line in text.strip().splitlines())


def test_delaygen_deterministic_outputs(tmp_path):
    run(["delaygen", "--preset", "product-1423", "--out", str(tmp_path / "a")])
    run(["delaygen", "--preset", "product-1423", "--out", str(tmp_path / "b")])
    for name in ("descriptor.json", "descriptor.txt", "descriptor.tex"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_tau_command(capsys):
    assert run(["tau", "--level", "3", "--copy", "6"]) == 0
    out = capsys.readouterr().out
    assert "3/4 + t/8" in out and "ok" in out
    assert run(["tau", "--level", "2", "--copy", "2"]) == 0
    out = capsys.readouterr().out
    assert "1 - t/4" in out and "1/2 - t/4" in out and "MISMATCH" in out
    assert run(["tau", "--level", "2", "--copy", "1"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out.splitlines()[0]


def test_main_reuses_one_parser_and_calls_patched_handlers(monkeypatch, capsys):
    """main parses every call with the one parser of the process and looks
    its handler up at call time, so a patched cmd_* is the one that runs;
    usage errors still exit 2."""
    calls = []
    monkeypatch.setattr(cli, "cmd_tau", lambda args: calls.append((args.level, args.copy)) or 0)
    assert run(["tau", "--level", "2"]) == 0
    assert run(["tau", "--level", "3", "--copy", "1"]) == 0
    assert calls == [(2, None), (3, 1)]
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        run(["tau"])
    assert exc.value.code == 2 and "--level" in capsys.readouterr().err


def test_roundtrip_command(capsys):
    assert run(["roundtrip", "--preset", "product-1423", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "bitwise-exact at nodes: True" in out


def test_roundtrip_rational_chain_fast_convergence_ok(capsys):
    """Contraction faster than second order is not a finding."""
    assert run(["roundtrip", "--preset", "rr-chain-13", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "FINDING" not in out


def test_chords_outputs_deterministic(tmp_path):
    for sub in ("a", "b"):
        run(["chords", "--preset", "torus-morse-n1", "--out", str(tmp_path / sub), "--steps", "2^7", "--grid", "2"])
    assert (tmp_path / "a" / "orbitset.json").read_bytes() == (tmp_path / "b" / "orbitset.json").read_bytes()
    assert (tmp_path / "a" / "chord_000.csv").read_bytes() == (tmp_path / "b" / "chord_000.csv").read_bytes()


def test_chords_morse_bounds(tmp_path, capsys):
    code = run([
        "chords", "--preset", "torus-morse-n1", "--out", str(tmp_path),
        "--steps", "2^8", "--grid", "4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "chords found: 4" in out
    assert "bound betti_sum = 4: count 4 >= 4 ok" in out
    assert "bound cuplength_plus_1 = 3: count 4 >= 3 ok" in out
    assert (tmp_path / "orbitset.json").exists()
    assert (tmp_path / "chord_000.csv").exists()
    assert (tmp_path / "loop_000.csv").exists()


def test_chords_zero_k_degenerate_skips_bounds(tmp_path, capsys):
    code = run(["chords", "--preset", "zero-K", "--out", str(tmp_path), "--steps", "16", "--grid", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bounds check skipped" in out


def test_verify_morse(tmp_path, capsys):
    code = run([
        "verify", "--preset", "torus-morse-n1", "--out", str(tmp_path),
        "--steps", "2^9", "--grid", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "max delay residual" in out


def test_chords_bound_violation_exits_one(tmp_path, capsys):
    from importlib import resources

    cfg = json.loads(resources.files("hamdelay.presets").joinpath("torus-morse-n1.json").read_text())
    cfg["bounds"] = {"betti_sum": 99}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run(["chords", "--config", str(path), "--out", str(tmp_path / "o"), "--steps", "2^8", "--grid", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "VIOLATED" in out


def test_verify_tolerance_violation_exits_one(tmp_path, capsys):
    from importlib import resources

    cfg = json.loads(resources.files("hamdelay.presets").joinpath("product-T4.json").read_text())
    cfg["tolerances"]["delay_residual"] = 1e-13
    cfg["integrator"]["steps"] = 512
    cfg["grid"]["points_per_dim"] = 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1


def test_verify_without_chords_is_a_finding(tmp_path, capsys):
    """One Newton iteration finds no chord from the one product-T4 seed:
    verify then exits 1, reports ok false and gives the seed failure tally."""
    from importlib import resources

    cfg = json.loads(resources.files("hamdelay.presets").joinpath("product-T4.json").read_text())
    cfg["newton"] = {"max_iter": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run(["verify", "--config", str(path), "--steps", "128", "--grid", "1", "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 1
    assert "verifying 0 chords" in out
    assert "no chord to verify; seed failures: no-convergence 1, singular-jacobian 0" in out.splitlines()
    report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
    assert report["chords"] == [] and report["ok"] is False
    assert report["seed_failures"] == {"no-convergence": 1, "singular-jacobian": 0}


def test_verify_too_few_steps_is_config_error(tmp_path, capsys):
    """Four steps leave two intervals per segment, too few for the delay
    residual's one-sided stencils: a config error before any chord is solved."""
    code = run(["verify", "--preset", "product-T4", "--steps", "4", "--grid", "1", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:") and "at least 3 intervals per segment" in captured.err
    assert "verifying" not in captured.out
    assert not (tmp_path / "verify_report.json").exists()


def _small_action_config(tmp_path):
    cfg = {
        "space": {"half_dim": 1, "topology": "torus"},
        "chain": {"steps": []},
        "hamiltonian": {"kind": "structured", "structured": {"level": 0, "terms": []}},
        "action": {"levels": [1, 2], "loops": 1, "sweep": [256, 512, 1024], "amp": 0.25},
        "seed": 11,
    }
    path = tmp_path / "action.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_action_sweep_small(tmp_path, capsys):
    code = run(["action", "--config", _small_action_config(tmp_path), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 0
    assert "worst observed order" in out
    assert (tmp_path / "o" / "action_gaps.json").exists()


@pytest.mark.parametrize("amp", [0.0, 1e-14])
def test_action_without_measurable_order_is_a_finding(amp, tmp_path, capsys):
    """A loop whose gaps all sit at the 1e-13 floor measures no order: that
    is reported and exits 1, not a silent 'worst observed order inf'."""
    path = tmp_path / "cfg.json"
    cfg = json.loads(open(_small_action_config(tmp_path)).read())
    cfg["action"].update(levels=[1], amp=amp)
    path.write_text(json.dumps(cfg))
    code = run(["action", "--config", str(path), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 1
    assert "FINDING: no convergence order measured for (level, loop) [(1, 0)]" in out
    assert "inf" not in out
    assert (tmp_path / "o" / "action_gaps.json").exists()


def test_action_tau_compat_mode(tmp_path, capsys):
    code = run([
        "action", "--config", _small_action_config(tmp_path), "--tau-compat",
        "--out", str(tmp_path / "o2"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "mismatched copies [2, 3]" in out
    assert "gap[printed]" in out
    # every gap record equals per-variant recomputations from the same draws
    space, rng = PhaseSpace(1, "torus"), np.random.default_rng(11)
    expected = []
    for n in (1, 2):
        chain = TransformChain.standard(n)
        f = cli._random_trig_loop(space, rng, 0.25)
        H = cli._random_base_hamiltonian(space, rng, 0.25)
        for N in (256, 512, 1024):
            loop = DiscreteCurve.from_function(space, f, N)
            gaps = {f"gap_{v}": pushforward_gap(H, loop, chain, variant=v) for v in ("derived", "printed")}
            expected.append({"level": n, "loop": 0, "N": N} | gaps)
    records = json.loads((tmp_path / "o2" / "action_gaps.json").read_text())
    assert [r for r in records if "N" in r] == expected


def test_action_tau_compat_maps_each_loop_once(tmp_path, monkeypatch):
    """--tau-compat shares one Psi^n image per (level, loop, N) between the
    variants: psi_chain runs once for each."""
    calls = []
    psi_chain = hamdelay.action.psi_chain

    def counting(chain, loop):
        calls.append((chain.level, loop.n_intervals))
        return psi_chain(chain, loop)

    monkeypatch.setattr(hamdelay.action, "psi_chain", counting)
    code = run(["action", "--config", _small_action_config(tmp_path), "--tau-compat", "--out", str(tmp_path / "o")])
    assert code == 0
    assert calls == [(n, N) for n in (1, 2) for N in (256, 512, 1024)]


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--grid", "0"),
        ("--grid", "-1"),
        ("--steps", "0"),
        ("--steps", "abc"),
        ("--steps", "2^x"),
        ("--steps", "2^50"),
        ("--steps", "2^70"),
    ],
)
def test_bad_override_is_config_error(flag, value, tmp_path, capsys):
    code = run(["chords", "--preset", "torus-morse-n1", flag, value, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "orbitset.json").exists()


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("grid", "points_per_dim", 0),
        ("newton", "max_iter", 2.5),
        ("newton", "tol", float("nan")),
        ("newton", "fd_step", float("inf")),
        ("newton", "min_damping", 4.0),
        ("grid", "points_per_dim", 2.7),
        ("integrator", "steps", 64.9),
        ("integrator", "steps", "64"),
        ("integrator", "steps", 2**50),
        ("chain", "steps", [{"kind": "affine_r", "r": "1/3000001"}]),
        ("space", "half_dim", 1.5),
        ("space", "half_dim", True),
        ("space", "half_dim", 0),
        ("chain", "steps", [{"kind": "affine_r", "r": "1/0"}]),
        ("newton", "fd_step", 1e-6),
        ("newton", "cond_limit", 1e12),
        ("newton", "max_iter", True),
    ],
)
def test_bad_config_value_is_config_error(section, key, value, tmp_path, capsys):
    from importlib import resources

    cfg = json.loads(resources.files("hamdelay.presets").joinpath("torus-morse-n1.json").read_text())
    cfg.setdefault(section, {})[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run(["chords", "--config", str(path), "--steps", "64", "--grid", "2", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "o" / "orbitset.json").exists()


@pytest.mark.parametrize("command", ["chords", "roundtrip", "delaygen"])
@pytest.mark.parametrize(
    "section,key,value,field",
    [
        ("space", "half_dim", 1.5, "space.half_dim"),
        ("chain", "steps", [{"kind": "affine_r", "r": "1/0"}], "chain step r"),
    ],
)
def test_bad_config_value_names_its_field(command, section, key, value, field, tmp_path, capsys):
    """A fractional half_dim and a zero denominator in an affine r end in
    a config error that names the field on every command, not in a
    traceback or, on delaygen, in a run."""
    from importlib import resources

    cfg = json.loads(resources.files("hamdelay.presets").joinpath("torus-morse-n1.json").read_text())
    cfg[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("action", "sweep", [0, 64]),
        ("action", "sweep", [64.5, 128]),
        ("action", "sweep", [64]),
        ("action", "sweep", [64, 64]),
        ("action", "sweep", 64),
        ("action", "levels", [0]),
        ("action", "levels", []),
        ("action", "levels", [13]),
        ("action", "sweep", [2**50, 2**10]),
        ("action", "loops", 0),
        ("action", "amp", float("nan")),
        ("action", "amp", "0.25"),
        ("action", "amp", 10**400),
        ("roundtrip", "roundtrip_nodes", 0),
        ("roundtrip", "roundtrip_nodes", "x"),
        ("roundtrip", "roundtrip_nodes", 2**50),
        ("roundtrip", "amp", float("inf")),
    ],
)
def test_bad_action_value_is_config_error(command, key, value, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    cfg = json.loads(open(_small_action_config(tmp_path)).read())
    cfg["action"][key] = value
    path.write_text(json.dumps(cfg))
    code = run([command, "--config", str(path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:")
    assert captured.out == ""


@pytest.mark.parametrize("config_seed,override", [(2.7, None), (-1, None), (0, "-1")])
def test_bad_seed_is_config_error(config_seed, override, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    cfg = json.loads(open(_small_action_config(tmp_path)).read())
    cfg["seed"] = config_seed
    path.write_text(json.dumps(cfg))
    flags = ["--seed", override] if override else []
    code = run(["action", "--config", str(path), *flags, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:")
    assert captured.out == ""


SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_cold_start_loads_no_scipy(tmp_path):
    """scipy is imported where it is used: a fresh interpreter that imports
    the CLI, prints the copy time maps and counts chords on torus-morse-n1
    (whose pullbacks read only nodes) loads no scipy module."""
    probe = f"""
import contextlib, io, json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = {{}}
import hamdelay.cli
loaded["import"] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    loaded["tau code"] = hamdelay.cli.main(["tau", "--level", "3"])
    loaded["tau"] = scipy_modules()
    loaded["chords code"] = hamdelay.cli.main(
        ["chords", "--preset", "torus-morse-n1", "--steps", "64", "--grid", "2", "--out", {str(tmp_path)!r}]
    )
    loaded["chords"] = scipy_modules()
print(json.dumps(loaded))
"""
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded == {"import": [], "tau code": 0, "tau": [], "chords code": 0, "chords": []}
    assert (tmp_path / "orbitset.json").exists()


def test_curve_reads_load_no_scipy(tmp_path):
    """Reading curves between nodes needs no scipy: in a fresh interpreter,
    chords on a 9-step r = 1/3 chain (whose pullbacks read between nodes),
    the action sweep and the roundtrip load no scipy module, and verify
    loads the sparse solver but not scipy.interpolate."""
    probe = f"""
import contextlib, io, json, sys
import hamdelay.cli, hamdelay.transforms
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
reads = []
evaluate = hamdelay.transforms.CurveInterpolant.evaluate
def counted(self, t, copy=None):
    reads.append(len(t))
    return evaluate(self, t, copy)
hamdelay.transforms.CurveInterpolant.evaluate = counted
out = {str(tmp_path)!r}
report = {{}}
for name, argv in [
    ("chords", ["chords", "--preset", "rr-chain-13", "--steps", "9", "--grid", "2"]),
    ("action", ["action", "--preset", "action-sweep", "--tau-compat"]),
    ("roundtrip", ["roundtrip", "--preset", "rr-chain-13"]),
    ("verify", ["verify", "--preset", "product-T4", "--steps", "128", "--grid", "1"]),
]:
    del reads[:]
    with contextlib.redirect_stdout(io.StringIO()):
        code = hamdelay.cli.main(argv + ["--out", out])
    report[name] = {{"code": code, "reads": len(reads), "scipy": scipy_modules()}}
print(json.dumps(report))
"""
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    for name in ("chords", "action", "roundtrip"):
        assert report[name]["code"] == 0
        assert report[name]["reads"] > 0, name  # the run reads between nodes
        assert report[name]["scipy"] == [], name
    assert report["verify"]["code"] == 0 and report["verify"]["reads"] > 0
    assert "scipy.sparse.linalg" in report["verify"]["scipy"]
    assert not [m for m in report["verify"]["scipy"] if m.startswith("scipy.interpolate")]


@pytest.mark.parametrize("content", ["{not json", "", "[1, 2]", b"\xff\xfe\x00"])
def test_unparsable_config_is_config_error(content, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code = run(["delaygen", "--config", str(path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:") and str(path) in captured.err
    assert captured.out == ""


def test_directory_config_is_config_error(tmp_path, capsys):
    code = run(["delaygen", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:") and str(tmp_path) in captured.err


@pytest.mark.parametrize(
    "key,value",
    [
        ("delay_residual", "abc"),
        ("delay_residual", "1e-4"),
        ("delay_residual", 0),
        ("delay_residual", -1e-4),
        ("delay_residual", float("inf")),
        ("delay_residual", True),
        ("route_distance", "nan"),
        ("route_distance", float("nan")),
        ("verify_nodes", "abc"),
        ("verify_nodes", 0),
        ("verify_nodes", 512.7),
        ("verify_nodes", -8),
        ("verify_nodes", 2**50),
    ],
)
def test_bad_tolerance_is_config_error(key, value, tmp_path, capsys):
    from importlib import resources

    cfg = json.loads(resources.files("hamdelay.presets").joinpath("product-T4.json").read_text())
    cfg["tolerances"][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run(["verify", "--config", str(path), "--steps", "128", "--grid", "1", "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:") and f"tolerances.{key}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o" / "verify_report.json").exists()


@pytest.mark.parametrize(
    "section,value",
    [
        ("bounds", {"cuplength_plus_1": "x"}),
        ("bounds", {"cuplength_plus_1": -1}),
        ("bounds", {"betti_sum": 2.5}),
        ("bounds", {"betti_sum": None}),
        ("bounds", [["betti_sum", 4]]),
        ("tolerances", [1e-4]),
        ("grid", []),
        ("integrator", 5),
        ("hamiltonian", []),
        ("action", []),
        ("newton", "x"),
    ],
)
def test_bad_bounds_or_tolerances_section_is_config_error(section, value, tmp_path, capsys):
    from importlib import resources

    cfg = json.loads(resources.files("hamdelay.presets").joinpath("torus-morse-n1.json").read_text())
    cfg[section] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    command = "verify" if section == "tolerances" else "chords"
    code = run([command, "--config", str(path), "--steps", "64", "--grid", "2", "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:") and section in captured.err
    assert captured.out == ""


def test_valid_tolerances_and_bounds_pass_through():
    """Every packaged preset validates, and accepted values keep their type
    (an integral float verify_nodes becomes an int)."""
    from importlib import resources

    from hamdelay.cli import ExperimentConfig

    for ref in resources.files("hamdelay.presets").iterdir():
        if ref.name.endswith(".json"):
            ExperimentConfig.from_dict(json.loads(ref.read_text()))
    cfg = ExperimentConfig.from_dict(
        {
            "tolerances": {"delay_residual": 1e-13, "route_distance": 1, "verify_nodes": 64.0},
            "bounds": {"cuplength_plus_1": 0, "betti_sum": 4.0},
            "newton": {"max_iter": 12.0},
        }
    )
    assert cfg.tolerances == {"delay_residual": 1e-13, "route_distance": 1, "verify_nodes": 64}
    assert cfg.bounds == {"cuplength_plus_1": 0, "betti_sum": 4}
    assert isinstance(cfg.tolerances["verify_nodes"], int) and isinstance(cfg.bounds["betti_sum"], int)
    assert cfg.newton.max_iter == 12 and isinstance(cfg.newton.max_iter, int)


@pytest.mark.parametrize(
    "argv",
    [
        ["--level", "0"],
        ["--level", "-1"],
        ["--level", "2", "--copy", "0"],
        ["--level", "2", "--copy", "5"],
        ["--level", "2", "--copy", "99"],
        ["--level", "2", "--copy", "-1"],
        ["--level", "13"],
    ],
)
def test_tau_out_of_range_is_config_error(argv, capsys):
    code = run(["tau", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,out",
    [
        (["delaygen", "--preset", "sum-n2"], "afile"),
        (["verify", "--preset", "product-T4", "--steps", "128", "--grid", "1"], "afile"),
        (["action", "--config", None], "afile"),
        (["chords", "--preset", "torus-morse-n1", "--steps", "64", "--grid", "2"], "afile/sub"),
    ],
)
def test_unusable_out_is_config_error(argv, out, tmp_path, capsys):
    """An --out that cannot be a directory is rejected before any solving."""
    (tmp_path / "afile").write_text("")
    argv = [_small_action_config(tmp_path) if a is None else a for a in argv]
    code = run([*argv, "--out", str(tmp_path / out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:") and "--out" in captured.err
    assert captured.out == ""


def _plane_config(tmp_path, bounds):
    from importlib import resources

    cfg = json.loads(resources.files("hamdelay.presets").joinpath("plane-oscillator.json").read_text())
    if bounds is None:
        del cfg["grid"]["bounds"]
    else:
        cfg["grid"]["bounds"] = bounds
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("command", ["chords", "verify"])
@pytest.mark.parametrize(
    "bounds",
    [
        None,
        [[-0.8, 0.8]],
        [[-0.8, 0.8, 0.1], [-0.8, 0.8]],
        [[-0.8, "x"], [-0.8, 0.8]],
        [[-0.8, float("nan")], [-0.8, 0.8]],
    ],
)
def test_bad_plane_seed_bounds_are_config_errors(command, bounds, tmp_path, capsys):
    code = run([command, "--config", _plane_config(tmp_path, bounds), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:") and "grid.bounds" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [NAN, -INF, "x"])
def test_non_finite_term_coeff_is_config_error(value, tmp_path, capsys):
    """A term coefficient must be a finite number too; the error names the term."""
    code = run(["chords", "--config", _edit_first_factor(tmp_path, "torus-morse-n1", "coeff", value), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error: term 1: coeff must be a finite number")
    assert not (tmp_path / "o").exists()


def test_plane_roundtrip_needs_no_seed_bounds(tmp_path, capsys):
    """Only chord scans seed from grid.bounds; a plane roundtrip runs without them."""
    code = run(["roundtrip", "--config", _plane_config(tmp_path, None), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "roundtrip at N=384" in capsys.readouterr().out


def _edit_first_factor(tmp_path, preset, key, value):
    """The preset with one field of its first base factor replaced: a key of
    the spatial part, "exponents" or "coefficient" for the first monomial's,
    "space" or "time" for the whole part, "copy" for the factor's copy, or
    "coeff" for the term's."""
    from importlib import resources

    cfg = json.loads(resources.files("hamdelay.presets").joinpath(f"{preset}.json").read_text())
    h = cfg["hamiltonian"]
    term = h["base" if h["kind"] == "lift" else "structured"]["terms"][0]
    factor = term["factors"][0]
    if key in ("exponents", "coefficient"):
        factor["space"]["terms"][0][1 if key == "exponents" else 0] = value
    elif key in ("space", "time", "copy"):
        factor[key] = value
    elif key == "coeff":
        term[key] = value
    else:
        factor["space"][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize(
    "preset,key,value",
    [
        ("plane-oscillator", "exponents", [1.5, 0]),
        ("torus-morse-n1", "freq", [1.5, 0]),
        ("plane-oscillator", "exponents", [-1, 0]),
        ("plane-oscillator", "exponents", [2]),
        ("plane-oscillator", "exponents", [2, 0, 1]),
        ("torus-morse-n1", "freq", [1]),
        ("torus-morse-n1", "freq", [1, 0, 1]),
        ("torus-morse-n1", "freq", 1),
        ("plane-oscillator", "exponents", 2),
        ("torus-morse-n1", "time", {"kind": "trig", "amp": 0.3, "freq": 1.5, "offset": 1.0}),
        ("plane-oscillator", "exponents", [1e30, 0]),
        ("torus-morse-n1", "freq", [0, -1e30]),
        ("torus-morse-n1", "time", {"kind": "trig", "amp": 0.3, "freq": 1e30, "offset": 1.0}),
        ("torus-morse-n1", "amp", NAN),
        ("torus-morse-n1", "amp", INF),
        ("torus-morse-n1", "amp", "x"),
        ("torus-morse-n1", "amp", True),
        ("torus-morse-n1", "phase", -INF),
        ("plane-oscillator", "coefficient", NAN),
        ("plane-oscillator", "coefficient", "1"),
        ("torus-morse-n1", "space", {"kind": "const", "value": INF}),
        ("torus-morse-n1", "time", {"kind": "const", "value": NAN}),
        ("torus-morse-n1", "time", {"kind": "trig", "amp": NAN, "offset": 1.0}),
        ("torus-morse-n1", "time", {"kind": "trig", "amp": 0.3, "phase": INF}),
        ("torus-morse-n1", "time", {"kind": "trig", "amp": 0.3, "offset": "1"}),
        ("torus-morse-n1", "time", {"kind": "bump", "center": NAN}),
        ("torus-morse-n1", "time", {"kind": "bump", "height": INF}),
        ("torus-morse-n1", "time", {"kind": "bump", "width": 0.0}),
        ("torus-morse-n1", "time", {"kind": "bump", "width": -0.25}),
        ("torus-morse-n1", "time", {"kind": "tabulated", "values": [0.1, NAN, 0.3]}),
        ("torus-morse-n1", "time", {"kind": "tabulated", "values": []}),
        ("product-T4", "copy", 1.5),
        ("torus-morse-n1", "copy", True),
    ],
)
def test_malformed_factor_is_config_error(preset, key, value, tmp_path, capsys):
    """A fractional, negative, huge, scalar or wrongly sized freq or
    exponent list, a fractional or huge time freq, a non-finite or
    non-numeric spatial or time-profile number, a bump of no width, an
    empty tabulated profile, or a fractional or bool copy stops the run before any work, naming the factor; none is truncated,
    clamped or broadcast into a valid one."""
    code = run(["chords", "--config", _edit_first_factor(tmp_path, preset, key, value), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error: term 1 factor 1: ")
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def _level7_config(tmp_path):
    """Seven halving steps on T^2 with K = 0: 2^6 * 2 = 128 diagonal parameters."""
    path = tmp_path / "level7.json"
    path.write_text(json.dumps({"chain": {"steps": [{"kind": "halving"}] * 7}, "integrator": {"steps": 128}}))
    return str(path)


def test_seed_grid_over_64_parameters_runs(tmp_path, capsys):
    """One seed over 128 parameters: the seed grid is built without a
    128-dimensional meshgrid, which numpy cannot make."""
    assert run(["chords", "--config", _level7_config(tmp_path), "--grid", "1", "--out", str(tmp_path / "o")]) == 0
    assert "chords found:" in capsys.readouterr().out


def test_seed_count_beyond_max_nodes_is_config_error(tmp_path, capsys):
    """2 points over 128 parameters are 2^128 seeds: a config error naming
    grid.points_per_dim before any array is built."""
    code = run(["chords", "--config", _level7_config(tmp_path), "--grid", "2", "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error: grid.points_per_dim") and captured.out == ""
    assert not (tmp_path / "o").exists()


def test_action_without_gap_is_a_finding(tmp_path, capsys):
    """A 4-node loop does not lift at level 2 (loop 0) and misses the
    level-3 breakpoints: each (level, loop, N) without a gap is reported
    and the sweep exits 1 with a finding, not a traceback."""
    from importlib import resources

    cfg = json.loads(resources.files("hamdelay.presets").joinpath("action-sweep.json").read_text())
    cfg["action"]["sweep"] = [4, 8]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["action", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    assert "no gap: lift does not close around the matching cycle" in out
    assert "FINDING: no gap at (level, loop, N) [(2, 0, 4), (3, 0, 4), (3, 1, 4)]" in out


def _spline_chain_config(tmp_path):
    """torus-morse-n1 on a one-step spline chain, whose breakpoint 0.4 is a
    node of an n-interval grid only when 5 divides n."""
    from importlib import resources

    cfg = json.loads(resources.files("hamdelay.presets").joinpath("torus-morse-n1.json").read_text())
    cfg["chain"] = {
        "steps": [{"kind": "spline", "alpha": [[0, 0], [0.5, 0.2], [1, 0.4]], "beta": [[0, 1], [0.5, 0.7], [1, 0.4]]}]
    }
    path = tmp_path / "spline.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize(
    "argv,nodes",
    [
        (["chords", "--steps", "64", "--grid", "2"], 64),
        (["roundtrip"], 384),
        (["verify", "--steps", "80", "--grid", "2"], 512),
    ],
)
def test_misaligned_spline_grid_is_config_error(argv, nodes, tmp_path, capsys):
    """A non-affine chain's grid is not rounded up to its breakpoints: a
    step, roundtrip or verify node count that misses one is a config error
    before any output is written."""
    code = run([*argv, "--config", _spline_chain_config(tmp_path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"config error: grid is misaligned: breakpoint 0.4 is not one of {nodes} nodes\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_aligned_spline_grid_runs(tmp_path, capsys):
    """80 steps put the spline chain's breakpoint 0.4 on node 32."""
    assert run(["chords", "--steps", "80", "--config", _spline_chain_config(tmp_path), "--out", str(tmp_path / "o")]) == 0
    assert "chords found: 4" in capsys.readouterr().out
    assert (tmp_path / "o" / "loop_003.csv").exists()
