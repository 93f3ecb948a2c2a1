"""Driving the command line runner from configs, end to end.

Writes three experiment configs into a scratch directory, runs the
corresponding subcommands twice each, shows the emitted files, and checks
the byte-identical rerun guarantee plus the --assert exit code contract.
The scratch directory is removed at the end.
"""

import json
import tempfile
from pathlib import Path

from farfield.cli import main


def run(name, cfg, out, *flags):
    cfg_path = out / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    code = main([name, "--config", str(cfg_path), "--out", str(out), *flags])
    print(f"  farfield {name} --config {cfg_path.name} -> exit {code}")
    return code


def tour(scratch):
    print(f"scratch directory: {scratch}\n")

    print("porosity of the powers of two:")
    run("porosity", {"model": {"kind": "geometric_points",
                               "q": "2", "c": "1", "n0": 0}},
        scratch, "--horizon", "80")
    summary = json.loads((scratch / "porosity_summary.json").read_text())
    print(f"  value {summary['value']} ({summary['status']})\n")

    print("epsilon curve, line vs unit lattice:")
    run("epsilon", {
        "y_model": {"kind": "full_line"},
        "z_model": {"kind": "lattice", "step": "1", "offset": "0",
                    "half": "full"},
        "t_grid": ["3/2", "5/2", "7/2"]}, scratch)
    for line in (scratch / "epsilon_curve.csv").read_text().splitlines():
        print(f"  {line}")
    print()

    print("equivalence with --assert on a refuted pair:")
    cfg = {"y_model": {"kind": "geometric_points", "q": "2", "c": "1",
                       "n0": 0},
           "z_model": {"kind": "ray", "origin": "0", "direction": "+"},
           "p": "0"}
    code = run("equiv", cfg, scratch, "--assert")
    verdict = json.loads((scratch / "equiv_verdict.json").read_text())
    print(f"  status {verdict['status']}, witness c = "
          f"{verdict['witness']['c']}, exit code {code}\n")

    print("determinism: rerunning the epsilon config...")
    first = (scratch / "epsilon_curve.csv").read_bytes()
    run("epsilon", {
        "y_model": {"kind": "full_line"},
        "z_model": {"kind": "lattice", "step": "1", "offset": "0",
                    "half": "full"},
        "t_grid": ["3/2", "5/2", "7/2"]}, scratch)
    second = (scratch / "epsilon_curve.csv").read_bytes()
    print(f"  byte-identical: {first == second}")


def main_demo():
    with tempfile.TemporaryDirectory(prefix="farfield-demo-") as scratch:
        tour(Path(scratch))


if __name__ == "__main__":
    main_demo()
