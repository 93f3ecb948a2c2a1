"""farfield benchmark: seeded job streams, end-to-end metrics, layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload porosity_sweep --seed 1 \
        --seconds 50 --trace 0

One client drives the public entry points in-process as a closed loop: a
job is one `farfield.cli.main(argv)` call, or one pseudometric search call
where no subcommand reaches the search. A workload is a seeded cycle of
jobs (workloads.py); a run of --seconds S repeats the cycle
round(S / CYCLE_CHARGE_S) times, at most about S seconds on the
reference machine, so every run of a workload measures the same multiset
of jobs.

Latencies are each job's best over the run's repetitions of it: on a
shared two-core machine a plain loop swings by half its time for seconds
at a stretch, and the best of several repetitions spread over the run is
what stays put. jobs_per_s is the rate of one cycle at those latencies.

Every first output is checked by the benchmark's own oracles after the
loop (oracles.py), every repeated job must reproduce its first output byte
for byte, and one sampled job is rerun once more at the end.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced and
one traced pass over the cycle and prints the per-layer metrics; spans are
written to .bench_out/trace/. The last stdout line is a JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import oracles
import selftest
import workloads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_REPEATS = 11
TAIL_BEYOND = 10
HARD_STOP_S = 120.0
# Seconds of --seconds charged per cycle of each workload: a run of
# --seconds S measures round(S / charge) whole cycles, so every run of a
# workload measures the same multiset of jobs and its tail percentile
# always falls on the same job. The charge is about the cycle time on
# the reference machine (two cores) when its shared host is loaded, so a
# run lasts at most about S seconds there, and less when the host is
# quiet.
CYCLE_CHARGE_S = {"porosity_sweep": 8.0, "equiv_ladder": 0.3,
                  "spectra_lab": 1.2, "pseudo_search": 0.65,
                  "query_mix": 3.1}


def fresh_import():
    """Import farfield from this checkout's src/, dropping cached modules
    first so that every set-up pays the import again."""
    for name in [n for n in sys.modules
                 if n == "farfield" or n.startswith("farfield.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {layer: importlib.import_module(f"farfield.{layer}")
               for layer in LAYERS}
    where = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"farfield imported from {where}, not {SRC}")
    return SimpleNamespace(**modules)


def write_configs(jobs, folder: Path):
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, job in enumerate(jobs):
        path = None
        if job.command is not None:
            path = folder / f"{i}.json"
            path.write_text(json.dumps(job.config, sort_keys=True),
                            encoding="utf-8")
        paths.append(path)
    return paths


def run_job(ff, job, cfg_path, out: Path):
    if job.command is None:
        return job.call()
    argv = [job.command, "--config", str(cfg_path), "--out", str(out),
            *job.flags]
    return ff.cli.main(argv), out


def timed(ff, job, cfg_path, out):
    """(latency seconds, result, error text or None)."""
    t0 = time.perf_counter()
    try:
        result, err = run_job(ff, job, cfg_path, out), None
    except (Exception, SystemExit) as exc:  # a crash is a failed job
        result, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, err


def setup(workload, seed, work: Path, rep: int):
    """Import, input generation and warm-up; returns (seconds, state)."""
    t0 = time.perf_counter()
    ff = fresh_import()
    cycle, warmup = workloads.generate(workload, seed, ff)
    paths = write_configs(cycle, work / "cfg")
    warm_paths = write_configs(warmup, work / "cfg-warm")
    for i, (job, path) in enumerate(zip(warmup, warm_paths)):
        timed(ff, job, path, work / "warm" / str(rep) / str(i))
    return time.perf_counter() - t0, (ff, cycle, paths)


def _same_files(out: Path, first: Path) -> bool:
    """Whether two output directories hold the same files, byte for
    byte."""
    names = sorted(p.name for p in out.iterdir())
    return names == sorted(p.name for p in first.iterdir()) and all(
        (out / n).read_bytes() == (first / n).read_bytes() for n in names)


def _empty_dir(out: Path):
    out.mkdir(parents=True, exist_ok=True)
    for p in out.iterdir():
        p.unlink()


def run_cycles(ff, cycle, paths, work: Path, cycles, label="loop",
               tracer=None):
    """Closed loop over whole cycles; returns (wall seconds per cycle,
    executions). Stops early only past HARD_STOP_S.

    Each CLI job writes into one output directory of its own, made before
    the first repetition and emptied before every one, as a user rerunning
    the job would; only the CLI call is timed. The first outputs of each
    job are copied to work/first for the oracles; a CLI result is (exit
    code, whether the output files match that copy byte for byte), taken
    after the call."""
    walls = []
    executions = []
    t_start = time.perf_counter()
    for c in range(cycles):
        t_cycle = time.perf_counter()
        for i, (job, path) in enumerate(zip(cycle, paths)):
            if tracer is not None:
                tracer.job_id = i
            out = work / label / str(i)
            if job.command is not None:
                _empty_dir(out)
            lat, result, err = timed(ff, job, path, out)
            if err is None and job.command is not None:
                first = work / "first" / str(i)
                if not first.exists():
                    shutil.copytree(out, first)
                result = (result[0], _same_files(out, first))
            executions.append((i, lat, result, err))
            if time.perf_counter() - t_start > HARD_STOP_S:
                return walls, executions
        walls.append(time.perf_counter() - t_cycle)
    return walls, executions


def verify(ff, cycle, paths, executions, work, rng):
    """Oracle-check first outputs, compare repeats byte for byte, and rerun
    one sampled job. Returns (attempted, failed, reasons)."""
    first = {}
    verdict = {}
    failed = 0
    reasons = Counter()
    for i, _, result, err in executions:
        job = cycle[i]
        if err is not None:
            bad = err
        elif i not in first:
            first[i] = result
            if job.command is not None:
                result = (result[0], work / "first" / str(i))
            bad = oracles.check(job, result, ff.pseudometric)
            verdict[i] = bad
        elif verdict[i] is not None:
            bad = verdict[i]
        elif result != first[i]:
            bad = "rerun output differs from the first run"
        else:
            bad = None
        if bad is not None:
            failed += 1
            reasons[f"{job.tag}: {bad}"] += 1
    attempted = len(executions)
    pick = rng.choice(sorted(first)) if first else None
    if pick is not None:
        attempted += 1
        out = work / "rerun" / str(pick)
        _empty_dir(out)
        _, result, err = timed(ff, cycle[pick], paths[pick], out)
        if err is None and cycle[pick].command is not None:
            result = (result[0], _same_files(out, work / "first" /
                                             str(pick)))
        if err is not None or result != first[pick]:
            failed += 1
            reasons[f"{cycle[pick].tag}: sampled rerun not identical"] += 1
    return attempted, failed, reasons


def tail(latencies):
    """(value, percentile) at the highest percentile with TAIL_BEYOND
    samples beyond it; with too few samples, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def mix_lines(cycle):
    lines = []
    for label, key in (("job class", lambda j: [j.tag]),
                       ("subcommand", lambda j: [j.tag.split("/")[0]]),
                       ("model kind", lambda j: list(j.kinds))):
        counts = Counter(k for j in cycle for k in key(j))
        total = sum(counts.values())
        parts = ", ".join(f"{k} {100.0 * v / total:.1f}%"
                          for k, v in sorted(counts.items()))
        lines.append(f"mix by {label}: {parts}")
    return lines


def end_to_end(workload, seed, seconds, work):
    setups = []
    for rep in range(SETUP_REPEATS):
        state = None
        gc.collect()  # free the previous set-up's modules before timing
        took, state = setup(workload, seed, work, rep)
        setups.append(took)
    ff, cycle, paths = state
    cycles = max(1, round(seconds / CYCLE_CHARGE_S[workload]))
    walls, executions = run_cycles(ff, cycle, paths, work, cycles)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, reasons = verify(ff, cycle, paths, executions, work,
                                        random.Random(seed))
    for text, present in oracles.known_defects(ff.cli.main,
                                               work / "defects"):
        print(f"known defect {'present' if present else 'fixed'}: {text}")
    best = {}
    for i, lat, *_ in executions:
        best[i] = min(lat, best.get(i, lat))
    lat = [best[i] for i, *_ in executions]
    tail_s, pct = tail(lat)
    n = len(lat)
    metrics = {
        "jobs_per_s": (len(best) / sum(best.values()), "1/s",
                       f"{len(best)} jobs of a cycle at their best latency;"
                       f" {n} jobs took {sum(walls):.3f} s in all"),
        "job_p50_ms": (1000 * statistics.median(lat), "ms", f"{n} samples"),
        "job_tail_ms": (1000 * tail_s, "ms",
                        f"p{pct:.1f} of {n} samples, "
                        f"{min(TAIL_BEYOND, n - 1)} beyond"),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (peak_kb / 1024, "MB", "benchmark process"),
    }
    print(f"workload {workload} seed {seed}: {len(executions)} jobs in "
          f"{len(executions) // len(cycle)} cycles of {len(cycle)}")
    for line in mix_lines(cycle):
        print(line)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    print(f"failed_share = {failed / attempted:.6g} "
          f"({failed} of {attempted} attempted)")
    return attempted, failed, reasons, metrics


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, seed, seconds, work):
    _, (ff, cycle, paths) = setup(workload, seed, work, 0)
    problems = selftest.pinned_checks(ff, work / "selftest")
    plain_walls, plain = run_cycles(ff, cycle, paths, work, 1,
                                    label="untraced")
    tracer = Tracer()
    tracer.install()
    try:
        traced_walls, traced = run_cycles(ff, cycle, paths, work, 1,
                                          label="traced", tracer=tracer)
    finally:
        tracer.uninstall()
    attempted, failed, reasons = verify(ff, cycle, paths, plain + traced,
                                        work, random.Random(seed))
    for problem in problems:
        reasons[f"tracer self-test: {problem}"] += 1
    calls, self_s = tracer.totals()
    k = tracer.counters
    jobs = Counter(cycle[i].tag.split("/")[0] for i, *_ in traced)
    out_bytes = sum(p.stat().st_size
                    for p in (work / "traced").rglob("*") if p.is_file())
    metrics = {}

    def count(name, value=None):
        metrics[name] = (calls[name.rsplit(".", 1)[0]] if value is None
                         else value, "count")

    def busy(fn):
        metrics[f"{fn}.self_s"] = (self_s[fn], "s")

    for fn in ("rationals.ipow_floor_log", "rationals.dec",
               "setmodels.window_structure", "setmodels.longest_gap",
               "setmodels.critical_gap_h_values", "setmodels.sphere_slice",
               "setmodels.distance_to_set", "setmodels.contains",
               "setmodels.intersects_open_interval",
               "porosity.porosity_at_infinity",
               "equivalence.decide_strong_equivalence",
               "equivalence.sup_distance", "equivalence.epsilon_t",
               "line.classify_line_subspace", "line.complement_components",
               "spectra.compare_spectra", "spectra.window_hits",
               "seqlab.stability_graph", "seqlab.d_r",
               "pseudometric.exists_pseudoisometry",
               "pseudometric.exists_isometry", "pseudometric.metric_identify",
               "cli.main"):
        count(f"{fn}.calls")
        busy(fn)
    for fn in ("porosity.is_porous_at_infinity", "line.next_point_ge",
               "line.prev_point_le", "seqlab.tilde_d",
               "pseudometric.is_pseudoisometry"):
        count(f"{fn}.calls")
    for fn in ("setmodels.model_from_dict", "seqlab.maximal_self_stable",
               "seqlab.pretangent_space", "seqlab.subsequence_push",
               "cli.write_curve", "cli.write_json"):
        busy(fn)
    count("setmodels.window_structure.intervals",
          k["setmodels.window_structure.intervals"])
    count("porosity.horizons_probed", k["porosity.horizons_probed"])
    metrics["porosity.probe_calls_per_job"] = (_ratio(
        calls["porosity.porosity_at_infinity"], jobs["porosity"]), "ratio")
    metrics["porosity.exact_share"] = (_ratio(
        k["porosity.exact_results"], calls["porosity.porosity_at_infinity"]),
        "ratio")
    for rung in ("exact", "witness", "numerical", "inconclusive"):
        count(f"equivalence.rung.{rung}", k[f"equivalence.rung.{rung}"])
    count("spectra.scaling_evals", calls["seqlab.scaling.eval"])
    metrics["seqlab.exact_limit_share"] = (_ratio(
        k["seqlab.exact_limits"], k["seqlab.limits"]), "ratio")
    metrics["pseudometric.maps_per_search"] = (_ratio(
        calls["pseudometric.is_pseudoisometry"],
        calls["pseudometric.exists_pseudoisometry"]), "ratio")
    count("pseudometric.budget_exceeded", sum(
        v for name, v in k.items()
        if name.endswith(".raised.SearchBudgetExceeded")))
    metrics["cli.bytes_written"] = (out_bytes, "bytes")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum(
            v for name, v in self_s.items()
            if name.startswith(layer + ".")), "s")
    plain_rate = len(plain) / sum(plain_walls or [HARD_STOP_S])
    traced_rate = len(traced) / sum(traced_walls or [HARD_STOP_S])
    metrics["trace.untraced_jobs_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_jobs_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_share"] = (1 - traced_rate / plain_rate, "ratio")
    count("trace.spans", len(tracer.start))

    trace_dir = OUT_ROOT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    span_file = trace_dir / f"{workload}-seed{seed}.csv"
    tracer.write_spans(span_file)
    print(f"workload {workload} seed {seed}: traced one cycle of "
          f"{len(cycle)} jobs; {len(tracer.start)} spans in {span_file}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return attempted, failed + len(problems), reasons, {
        name: (value, unit, "") for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "farfield" / "cli.py").is_file():
        print(f"error: no farfield sources under {SRC}", file=sys.stderr)
        return 2
    work = OUT_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = per_layer if args.trace else end_to_end
        attempted, failed, reasons, metrics = run(
            args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason, times in reasons.most_common(20):
        print(f"FAILED x{times}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
