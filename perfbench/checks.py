"""Result fingerprints and the checks every operation must pass.

A fingerprint is what an operation printed or wrote that a speed-up must
not change: chord count and worst shooting residual (`chords`), chord
count, worst delay residual and worst route distance (`verify`), gaps and
observed orders (`action`), and the round-trip errors (`roundtrip`).

An operation passes when its exit code is 0, or 1 where 1 is a documented
finding that the fingerprint rules below do not already reject (a chord
count under a topological bound), when its fingerprint satisfies the
program's own rules, and, for the default seed, when it matches the
committed reference: chord counts exactly, floats within the same
tolerances.
"""

from __future__ import annotations

import json
import math
import re

ACTION_GAP_RTOL = 1e-6  # relative; gaps are differences of O(1) actions
ORDER_ATOL = 1e-3
ROUNDTRIP_ATOL = 1e-12
MIN_ORDER = 1.5

OUTPUT_FILES = {"chords": "orbitset.json", "verify": "verify_report.json", "action": "action_gaps.json"}


def fingerprint(op, stdout: str, out_dir) -> dict:
    """Reads the operation's report files and stdout into a fingerprint."""
    if op.command == "chords":
        summary = json.loads((out_dir / OUTPUT_FILES["chords"]).read_text())
        return {
            "count": summary["count"],
            "degenerate": summary["degenerate"],
            "max_shoot_residual": summary.get("max_residual", 0.0),
        }
    if op.command == "verify":
        report = json.loads((out_dir / OUTPUT_FILES["verify"]).read_text())
        return {
            "count": len(report["chords"]),
            "max_delay_residual": report["max_delay_residual"],
            "max_route_distance": report["max_route_distance"],
        }
    if op.command == "action":
        records = json.loads((out_dir / OUTPUT_FILES["action"]).read_text())
        gaps = [[r[k] for k in sorted(r) if k.startswith("gap_")] for r in records if "N" in r]
        orders = [r["order"] for r in records if "order" in r]
        return {"gaps": gaps, "orders": orders}
    if op.command == "roundtrip":
        exact = re.search(r"bitwise-exact at nodes: (True|False), sup error (\S+)", stdout)
        second = re.search(r"roundtrip at N=\d+: sup error (\S+)\s*$", stdout)
        return {"exact": exact.group(1) == "True", "error": float(exact.group(2)), "error_2n": float(second.group(1))}
    raise ValueError(f"no fingerprint for {op.command!r}")


def rule_failures(op, code: int, stdout: str, fp: dict) -> list[str]:
    """Violations of the program's own rules; empty when the operation passes."""
    problems = []
    if code not in (0, 1):
        problems.append(f"exit code {code}")
    elif code == 1 and not (op.command == "chords" and "VIOLATED" in stdout):
        problems.append("exit code 1 without a documented finding")
    if op.command == "chords" and fp["max_shoot_residual"] > op.checks["newton_tol"]:
        problems.append(f"shooting residual {fp['max_shoot_residual']:.3e} > tol {op.checks['newton_tol']:g}")
    if op.command == "verify":
        if not fp["max_delay_residual"] <= op.checks["delay_residual"]:
            problems.append(f"delay residual {fp['max_delay_residual']:.3e} > tol {op.checks['delay_residual']:g}")
        if not fp["max_route_distance"] <= op.checks["route_distance"]:
            problems.append(f"route distance {fp['max_route_distance']:.3e} > tol {op.checks['route_distance']:g}")
    if op.command == "action" and (not fp["orders"] or min(fp["orders"]) < MIN_ORDER):
        problems.append(f"observed orders {fp['orders']} below {MIN_ORDER}")
    return problems


def _close(a, b, atol, rtol=0.0) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol) or (a == b)


def reference_failures(op, fp: dict, ref: dict) -> list[str]:
    """Differences from the committed reference fingerprint of this operation."""
    bad = []
    if op.command in ("chords", "verify") and fp["count"] != ref["count"]:
        bad.append(f"chord count {fp['count']} != reference {ref['count']}")
    if op.command == "chords":
        if not _close(fp["max_shoot_residual"], ref["max_shoot_residual"], op.checks["newton_tol"]):
            bad.append("shooting residual differs from the reference")
    elif op.command == "verify":
        if not _close(fp["max_delay_residual"], ref["max_delay_residual"], op.checks["delay_residual"]):
            bad.append("delay residual differs from the reference")
        if not _close(fp["max_route_distance"], ref["max_route_distance"], op.checks["route_distance"]):
            bad.append("route distance differs from the reference")
    elif op.command == "action":
        flat = [g for row in fp["gaps"] for g in row]
        ref_flat = [g for row in ref["gaps"] for g in row]
        if len(flat) != len(ref_flat) or not all(_close(a, b, 1e-300, ACTION_GAP_RTOL) for a, b in zip(flat, ref_flat)):
            bad.append("action gaps differ from the reference")
        if len(fp["orders"]) != len(ref["orders"]) or not all(
            _close(a, b, ORDER_ATOL) for a, b in zip(fp["orders"], ref["orders"])
        ):
            bad.append("observed orders differ from the reference")
    elif op.command == "roundtrip":
        if fp["exact"] != ref["exact"]:
            bad.append("round-trip exactness differs from the reference")
        if not (_close(fp["error"], ref["error"], ROUNDTRIP_ATOL) and _close(fp["error_2n"], ref["error_2n"], ROUNDTRIP_ATOL)):
            bad.append("round-trip errors differ from the reference")
    return bad
