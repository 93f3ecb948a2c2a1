"""Tracer self-test against hand-derived counts.

`pinned_checks` runs inside every traced benchmark run:
- the GeometricPoints(2, 1, 0) porosity job at --horizon 80 calls
  porosity_at_infinity twice (once directly, once through
  is_porous_at_infinity) and longest_gap once per trace row in each call;
- GP(2) against the ray [0, inf) fires the witness rung exactly once.

Run as a script, it also traces one cycle of every workload twice with the
same seed and requires every call count to repeat exactly:

    python3 perfbench/selftest.py --seed 3
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from tracer import Tracer

GP2 = {"kind": "geometric_points", "q": "2", "c": "1", "n0": 0}
RAY = {"kind": "ray", "origin": "0", "direction": "+"}


def _traced_cli(ff, work: Path, name, command, config, flags=()):
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / f"{name}.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = work / name
    tracer = Tracer()
    tracer.install()
    try:
        code = ff.cli.main([command, "--config", str(cfg), "--out", str(out),
                            *flags])
    finally:
        tracer.uninstall()
    calls, _ = tracer.totals()
    return code, out, calls, tracer.counters


def pinned_checks(ff, work: Path):
    """List of problems; empty when the tracer counts what it should."""
    problems = []
    code, out, calls, _ = _traced_cli(ff, work, "porosity", "porosity",
                                      {"model": GP2}, ("--horizon", "80"))
    rows = len((out / "porosity_trace.csv").read_text().splitlines()) - 1
    if code != 0:
        problems.append(f"pinned porosity job exited {code}")
    if calls["porosity.porosity_at_infinity"] != 2:
        problems.append("porosity_at_infinity counted "
                        f"{calls['porosity.porosity_at_infinity']}, not 2")
    if calls["setmodels.longest_gap"] != 2 * rows:
        problems.append(f"longest_gap counted {calls['setmodels.longest_gap']}"
                        f", not 2 x {rows} trace rows")
    code, _, _, counters = _traced_cli(ff, work, "equiv", "equiv",
                                       {"y_model": GP2, "z_model": RAY})
    if counters["equivalence.rung.witness"] != 1:
        problems.append("GP(2) vs ray counted "
                        f"{counters['equivalence.rung.witness']} witness "
                        "rungs, not 1")
    return problems


def main(argv=None):
    import run
    import workloads

    parser = argparse.ArgumentParser(description="tracer self-test")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    work = run.OUT_ROOT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    failures = []
    try:
        ff = run.fresh_import()
        failures += pinned_checks(ff, work / "pinned")
        for workload in workloads.WORKLOADS:
            counts = []
            for attempt in range(2):
                _, (ff, cycle, paths) = run.setup(workload, args.seed,
                                                  work / workload, attempt)
                tracer = Tracer()
                tracer.install()
                try:
                    run.run_cycles(ff, cycle, paths, work / workload, 1,
                                   label=f"pass{attempt}", tracer=tracer)
                finally:
                    tracer.uninstall()
                calls, _ = tracer.totals()
                counts.append(dict(calls, **tracer.counters))
            same = counts[0] == counts[1]
            print(f"{workload}: {len(counts[0])} counted names, "
                  f"{sum(v for v in counts[0].values())} events, "
                  f"{'identical' if same else 'DIFFERENT'} across two passes")
            if not same:
                diff = sorted(n for n in set(counts[0]) | set(counts[1])
                              if counts[0].get(n) != counts[1].get(n))
                failures.append(f"{workload}: counts differ at {diff[:5]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("tracer self-test:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
