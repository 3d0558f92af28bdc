#!/usr/bin/env python3
"""List the functions of depctx that the README quick start never runs.

Copies the bundled smoke experiment into a temporary directory and runs the
quick start's commands there through ``depctx.cli.main``: extract (deps and
bow), search, report --timing, train (deps and bow), eval and toefl. They run
under the stdlib ``trace`` module in this one process, pinned to one CPU so
that no stage forks. Then, for each module of
``src/depctx``, it prints the functions and methods none of whose statements
ran. Such a function is an error path, a library entry, worker-only code, a
capability the quick start does not use, or code the program does not need.

It is a report, not a check: it fails only when a command fails. It imports
depctx from this checkout's ``src/`` and writes nothing inside the checkout.

    python tools/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import logging
import os
import shutil
import sys
import tempfile
import trace
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ in the checkout
SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from depctx import cli  # noqa: E402
from depctx.pipeline import CACHE_ENV_VAR, bundled_path  # noqa: E402

PACKAGE = SRC / "depctx"
DATA = ("fixture_treebank.conllu", "toy_similarity.tsv", "toy_toefl.txt")
EXPERIMENT = ["-c", "experiment.txt"]
COMMANDS = [
    ["extract", *EXPERIMENT],
    ["search", *EXPERIMENT],
    ["report", *EXPERIMENT, "--timing"],
    ["train", *EXPERIMENT, "--bags", "amod+conj", "--out", "vectors.txt"],
    ["eval", *EXPERIMENT, "--embeddings", "vectors.txt", "--classes", "A,V,N,ALL"],
    ["toefl", *EXPERIMENT, "--embeddings", "vectors.txt"],
    ["extract", *EXPERIMENT, "--context-type", "bow"],
    ["train", *EXPERIMENT, "--bags", "bow", "--out", "bow.txt"],
    ["eval", *EXPERIMENT, "--embeddings", "bow.txt"],
]


def copy_experiment(into: str) -> None:
    """Copy the bundled smoke experiment and its data files into ``into``."""
    shutil.copy(bundled_path("smoke_experiment.txt"), Path(into) / "experiment.txt")
    for name in DATA:
        shutil.copy(bundled_path(name), into)


def run_quick_start() -> set[tuple[str, int]]:
    """Copy the smoke experiment and run COMMANDS on it under ``trace``;
    return the (file, line) of every line of this checkout's code that ran."""
    # the interpreter's own libraries, numpy included, are not traced
    prefixes = (sys.prefix, sys.exec_prefix)
    ignored = [d for d in prefixes if not str(SRC).startswith(os.path.join(d, ""))]
    tracer = trace.Trace(count=1, trace=0, ignoredirs=ignored)
    os.environ.pop(CACHE_ENV_VAR, None)  # the experiment's own cache, in the copy
    if hasattr(os, "sched_setaffinity"):  # elsewhere depctx sees one CPU anyway
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # the commands' log lines are formatted, as on a terminal, and dropped;
    # cli.main's own logging set-up is then a no-op
    logging.basicConfig(level=logging.INFO, stream=io.StringIO())
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="depctx-reachability-") as tmp:
        tracer.runfunc(copy_experiment, tmp)
        os.chdir(tmp)
        try:
            for argv in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = tracer.runfunc(cli.main, argv)
                if code != cli.EXIT_OK:
                    sys.exit(f"depctx {' '.join(argv)} exited with status {code}")
        finally:
            os.chdir(here)
    return {(os.path.realpath(path), line) for path, line in tracer.results().counts}


def statement_lines(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[int]:
    """The first lines of a function's statements, its docstring and the
    bodies of the functions and classes it defines left out."""
    body = func.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    lines, todo = set(), list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.stmt):
            lines.add(node.lineno)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return lines


def functions(path: Path) -> list[tuple[str, int, set[int]]]:
    """(qualified name, line of its def, statement lines) of each function
    and method in a module, in source order."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child.lineno, statement_lines(child)))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return sorted(found, key=lambda f: f[1])


def main() -> int:
    ran = run_quick_start()
    print("functions of src/depctx whose bodies never ran, on the bundled smoke experiment:")
    for argv in COMMANDS:
        print("  depctx " + " ".join(argv))
    never_total = total = 0
    for module in sorted(PACKAGE.glob("*.py")):
        path = os.path.realpath(module)
        funcs = functions(module)
        never = [(name, line) for name, line, body in funcs if not any((path, n) in ran for n in body)]
        never_total += len(never)
        total += len(funcs)
        print(f"\n{module.name}: {len(never)} of {len(funcs)}")
        for name, line in never:
            print(f"  {line:4d}  {name}")
    print(f"\n{never_total} of {total} functions never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
