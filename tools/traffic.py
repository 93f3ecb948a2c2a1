"""Report the lines of `src/farfield` that no benchmark job and no demo
runs.

Run from anywhere inside the repository:

    python3 tools/traffic.py

Under `sys.settrace`, in this one process, the script imports farfield,
runs every job of the `porosity_sweep` and `query_mix` workloads for
seeds 1-5 (the warm-up jobs and the cycle, through the job runner of
`tools/same_outputs.py`) and then every `demos/*.py` through `runpy`,
with its stdout discarded. A line counts as run when the tracer sees it;
a line counts as a line when the compiled module has code on it. The
report prints, module by module, how many lines never ran, and under each
module the functions holding them ("<module>" for the top level), with
their line numbers.

Everything the jobs and demos write lands in a temporary directory,
which is removed at the end. The exit code is 0 whatever the report says.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import same_outputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "farfield"


def code_lines(path: Path) -> set:
    """The lines of a module that hold code, by its compiled code objects."""
    out, todo = set(), [compile(path.read_text(encoding="utf-8"),
                                str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def functions(path: Path) -> list:
    """(first line, last line, qualified name) of every function."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out.append((first, child.end_lineno, name))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def owner(funcs, line) -> str:
    """The innermost function holding a line, or "<module>"."""
    inside = [(first, name) for first, last, name in funcs
              if first <= line <= last]
    return max(inside)[1] if inside else "<module>"


def spans(lines) -> str:
    """Sorted line numbers with consecutive runs as a-b."""
    out, run = [], []
    for line in sorted(lines):
        if run and line != run[-1] + 1:
            out.append(run)
            run = []
        run.append(line)
    out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                     for r in out)


def trace_runs(work: Path) -> set:
    """(file, line) for every line of the package that the jobs and the
    demos run, with every file they write kept under work."""
    prefix, seen = str(PACKAGE) + "/", set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            seen.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    if any(name.split(".")[0] == "farfield" for name in sys.modules):
        raise RuntimeError("farfield was imported before the trace")
    tempfile.tempdir = str(work)
    sys.settrace(tracer)
    try:
        same_outputs.run_jobs(ROOT, work / "jobs")
        for demo in sorted((ROOT / "demos").glob("*.py")):
            sys.argv = [str(demo)]
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.settrace(None)
        tempfile.tempdir = None
    return seen


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        seen = trace_runs(Path(tmp))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path)
        unrun = sorted(line for line in lines
                       if (str(path), line) not in seen)
        total += len(unrun)
        print(f"{path.relative_to(ROOT)}: {len(unrun)} of {len(lines)} "
              "lines not run")
        funcs, by_function = functions(path), defaultdict(list)
        for line in unrun:
            by_function[owner(funcs, line)].append(line)
        for name, found in sorted(by_function.items(),
                                  key=lambda kv: kv[1][0]):
            print(f"  {name}: {len(found)} (lines {spans(found)})")
    print(f"{total} lines of src/farfield not run by the benchmark jobs "
          "or the demos")
    return 0


if __name__ == "__main__":
    sys.exit(main())
