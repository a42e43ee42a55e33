import json

import pytest

from hamdelay.cli import main


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


def test_chords_level_zero_chain_is_config_error(tmp_path, capsys):
    cfg = {
        "space": {"half_dim": 1, "topology": "torus"},
        "chain": {"steps": []},
        "hamiltonian": {"kind": "structured", "structured": {"level": 0, "terms": []}},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["chords", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


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


def test_action_tau_compat_mode(tmp_path, capsys):
    code = run([
        "action", "--config", _small_action_config(tmp_path), "--tau-compat",
        "--out", str(tmp_path / "o2"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "mismatched copies [2, 3]" in out
    assert "gap[printed]" in out
