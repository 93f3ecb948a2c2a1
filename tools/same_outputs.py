"""Compare the benchmark jobs' outputs and the demos' stdout of this
checkout with those of a git revision.

Run from anywhere inside the repository:

    python3 tools/same_outputs.py REV

REV is exported with `git archive` into a temporary directory. Each
checkout, REV's and this working tree, then runs in a subprocess of its
own every job of the `porosity_sweep` and `query_mix` workloads for seeds
1-5, the warm-up jobs and the cycle, as generated by that checkout's own
`perfbench/workloads.py` and run through its own `farfield` sources. A
CLI job's record is its exit code, what it printed to stdout and stderr,
and the bytes of every file it wrote; a search job's record is the
`repr` of its result. A job that raises is recorded by its exception.
Each checkout then runs every one of its `demos/*.py` in a subprocess
under `-W error` against its own sources. A demo's record is its exit code
and its stdout, with the "scratch directory:" line of `batch_runner`
masked, since that path is random.

The jobs and demos whose records differ are printed, and so are the
demos that exit nonzero in this working tree. The exit code is 1 when
any job or demo differs or such a demo fails, else 0.

Everything is written under the temporary directory, which is removed at
the end: no bytecode, configs or outputs land in either checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from types import SimpleNamespace

WORKLOADS = ("porosity_sweep", "query_mix")
SEEDS = range(1, 6)
LAYERS = ("cli", "porosity", "equivalence", "line", "spectra", "seqlab",
          "pseudometric", "setmodels", "rationals")
SCRATCH_LINE = re.compile(r"^scratch directory: .*$", re.MULTILINE)


def run_jobs(checkout: Path, work: Path) -> dict:
    """{job key: record} for every job of WORKLOADS and SEEDS, run with
    the checkout's perfbench modules and farfield sources."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    workloads = importlib.import_module("workloads")
    ff = SimpleNamespace(**{layer: importlib.import_module(
        f"farfield.{layer}") for layer in LAYERS})
    records = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            cycle, warmup = workloads.generate(workload, seed, ff)
            for phase, jobs in (("warmup", warmup), ("cycle", cycle)):
                for i, job in enumerate(jobs):
                    key = (workload, seed, phase, i, job.tag)
                    folder = work.joinpath(*map(str, key[:4]))
                    records[key] = _record(ff, job, folder)
    return records


def _record(ff, job, folder: Path):
    if job.command is None:
        try:
            return repr(job.call())
        except Exception as exc:
            return f"raised {type(exc).__name__}: {exc}"
    folder.mkdir(parents=True)
    cfg = folder / "config.json"
    cfg.write_text(json.dumps(job.config, sort_keys=True), encoding="utf-8")
    out = folder / "out"
    argv = [job.command, "--config", str(cfg), "--out", str(out), *job.flags]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            result = ff.cli.main(argv)
        except SystemExit as exc:
            result = f"exit {exc.code}"
        except Exception as exc:
            result = f"raised {type(exc).__name__}: {exc}"
    files = {str(p.relative_to(out)): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return result, stdout.getvalue(), stderr.getvalue(), files


def run_demos(checkout: Path, work: Path) -> dict:
    """{demo name: (exit code, stdout)} for every demos/*.py of the
    checkout, each run under -W error with the checkout's sources and a
    temp directory of its own under work."""
    checkout, records = checkout.resolve(), {}
    for demo in sorted(checkout.glob("demos/*.py")):
        tmp = work / demo.stem
        tmp.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
                   TMPDIR=str(tmp))
        done = subprocess.run([sys.executable, "-B", "-W", "error",
                               str(demo)], capture_output=True, text=True,
                              cwd=tmp, env=env)
        records[demo.name] = (done.returncode, SCRATCH_LINE.sub(
            "scratch directory: (masked)", done.stdout))
    return records


def export(repo: Path, rev: str, dest: Path):
    """Extract the tree of rev into dest with `git archive`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             check=True, capture_output=True, cwd=repo).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare with")
    parser.add_argument("--worker", nargs=3, metavar=("CHECKOUT", "WORK",
                                                      "DUMP"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        checkout, work, dump = map(Path, args.worker)
        Path(dump).write_bytes(pickle.dumps(run_jobs(checkout, work)))
        return 0
    here = Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True,
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parent).stdout.strip())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export(here, args.rev, tmp / "rev")
        checkouts = {"rev": tmp / "rev", "here": here}
        workers = {name: subprocess.Popen(
            [sys.executable, "-B", str(Path(__file__).resolve()), args.rev,
             "--worker", str(checkout), str(tmp / "work" / name),
             str(tmp / f"{name}.pickle")])
            for name, checkout in checkouts.items()}
        if any(worker.wait() for worker in workers.values()):
            print("error: a checkout's jobs did not run", file=sys.stderr)
            return 2
        records = {name: pickle.loads((tmp / f"{name}.pickle").read_bytes())
                   for name in checkouts}
        demos = {name: run_demos(checkout, tmp / "demos" / name)
                 for name, checkout in checkouts.items()}
    differ = _differing(records)
    for key in differ:
        print("differs:", "/".join(map(str, key)))
    print(f"{len(differ)} of {len(records['here'])} jobs differ from "
          f"{args.rev}")
    demos_differ = _differing(demos)
    for name in demos_differ:
        print("differs: demos/" + name)
    print(f"{len(demos_differ)} of {len(demos['here'])} demos differ from "
          f"{args.rev}")
    failed = [(name, code) for name, (code, _) in demos["here"].items()
              if code]
    for name, code in failed:
        print(f"failed: demos/{name} exited {code}")
    return 1 if differ or demos_differ or failed else 0


def _differing(records) -> list:
    """The keys whose records differ between "rev" and "here", or that
    only one of them has."""
    rev, here = records["rev"], records["here"]
    return sorted(key for key in rev.keys() | here
                  if rev.get(key) != here.get(key))


if __name__ == "__main__":
    sys.exit(main())
