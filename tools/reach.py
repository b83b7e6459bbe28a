"""
Reach map: list every function in src/encorsim that neither a CLI command
nor one round of each bench workload calls. Census: count the Python
calls of one bench round.

Usage:
    python3 tools/reach.py
    python3 tools/reach.py --census WORKLOAD [--tree DIR] [--size full|tiny]

Every call into a Python function is recorded with `sys.setprofile` while
this script imports encorsim, runs each CLI command at its defaults
(`table` in both modes, `place` also from the files `gen` writes, and
each output format) in a temporary directory, and then sets up and runs
one round of each workload in bench/workloads.py at seed 0 and full size.
The functions defined in src/encorsim (found with `ast`) that were never
entered are printed one per line as `path:line  qualified name`, followed
by a count. Lambdas and comprehensions are not listed.

An unreached function is a candidate for deletion, or it is reached only
through an error path or a test: read each one before deleting it.

`--census WORKLOAD` sets up the workload's inputs at seed 0 and the
given size (full by default) from a source tree, then runs one round of
it, as `bench/run.py` does, under the same `sys.setprofile` hook. A tree
is a directory that holds `src/encorsim` and `bench/`: the working copy
(the default), or a commit extracted with `git archive REV | tar -x -C
DIR`. It prints the count of Python-level calls (every `call` event:
functions, lambdas, comprehensions and generator resumptions) in total
and in the tree's src/encorsim, then the 20 functions entered most, as
`count  path:line  qualified name`. The round is seeded, and which
calls it makes does not depend on time, so the counts repeat exactly; a
round whose operations fail exits with an error.
"""
import argparse
import ast
import collections
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "encorsim")


def defined_functions():
    """{(file, name, first line): (display path, qualified name)} for
    every def in src/encorsim. The key is what a code object holds:
    co_filename, co_name and co_firstlineno, which is the line of the
    first decorator."""
    found = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    line = min([d.lineno for d in child.decorator_list]
                               + [child.lineno])
                    found[path, child.name, line] = (
                        os.path.relpath(path, ROOT), qualname)
                    visit(child, f"{qualname}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def cli_runs(cli, workdir):
    """Run every CLI command at its defaults; return the command names
    that ran."""
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if action.dest == "command")
    data = os.path.join(workdir, "data")
    config = os.path.join(workdir, "files.ini")
    with open(config, "w") as f:
        f.write("[place]\n" + "".join(
            f"{key} = {os.path.join(data, key)}.csv\n"
            for key in ("counties", "pops", "cdns")))
    runs = [["--out", data, "gen"], ["--config", config, "place"],
            ["table", "--mode", "direct"]]
    runs += [["--format", fmt, "--out", os.path.join(workdir, fmt), name]
             for name in commands for fmt in ("csv", "pretty")]
    for argv in runs:
        code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise SystemExit(f"encorsim {' '.join(argv)} exited {code}")
    return sorted(commands)


def bench_rounds(workloads):
    """Set up and run one round of each bench workload at seed 0."""
    for name, (setup, run_round) in workloads.WORKLOADS.items():
        inputs = setup(0, workloads.SIZES["full"][name])
        ops = workloads.Ops(hard_deadline=time.perf_counter() + 600)
        run_round(inputs, ops)
        if ops.failed:
            raise SystemExit(f"bench round {name} failed: {ops.errors}")


def import_tree(tree):
    """(encorsim.cli, workloads) from `tree`: its src/encorsim, put first
    on sys.path unless encorsim is already imported, and its
    bench/workloads.py. Exits with an error if encorsim comes from
    elsewhere."""
    tree = os.path.abspath(tree)
    src = os.path.join(tree, "src")
    if "encorsim" not in sys.modules:
        sys.path.insert(0, src)
    from encorsim import cli
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(
            src, "encorsim"):
        raise SystemExit(f"error: imported encorsim from {cli.__file__},"
                         f" not from {tree}")
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(tree, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return cli, workloads


def census(tree, workload, size="full"):
    """Counter of Python-level calls per code object in one seed-0 round
    of `workload` from `tree`; the inputs are set up before counting."""
    _, workloads = import_tree(tree)
    setup, run_round = workloads.WORKLOADS[workload]
    inputs = setup(0, workloads.SIZES[size][workload])
    ops = workloads.Ops(hard_deadline=time.perf_counter() + 600)
    calls = collections.Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    with workloads.KernelCheck(ops):
        sys.setprofile(count)
        try:
            run_round(inputs, ops)
        finally:
            sys.setprofile(None)
    if ops.failed:
        raise SystemExit(f"error: {ops.failed} operations failed:"
                         f" {ops.errors}")
    return calls


def print_census(tree, calls):
    tree = os.path.abspath(tree)
    package = os.path.join(tree, "src", "encorsim") + os.sep
    print(f"calls: {sum(calls.values())}")
    print("in src/encorsim:", sum(n for code, n in calls.items()
                                  if code.co_filename.startswith(package)))
    print("top 20 functions:")
    for code, n in calls.most_common(20):
        path = code.co_filename
        if path.startswith(tree + os.sep):
            path = os.path.relpath(path, tree)
        qualname = getattr(code, "co_qualname", code.co_name)
        print(f"  {n:>9}  {path}:{code.co_firstlineno}  {qualname}")


def reach_map():
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(record)
    try:
        cli, workloads = import_tree(ROOT)
        with tempfile.TemporaryDirectory() as workdir, \
                contextlib.redirect_stdout(io.StringIO()):
            commands = cli_runs(cli, workdir)
            bench_rounds(workloads)
    finally:
        sys.setprofile(None)

    reached = {(code.co_filename, code.co_name, code.co_firstlineno)
               for code in entered}
    defined = defined_functions()
    unreached = sorted((path, key[2], qualname)
                       for key, (path, qualname) in defined.items()
                       if key not in reached)
    for path, line, qualname in unreached:
        print(f"{path}:{line}  {qualname}")
    print(f"{len(unreached)} of {len(defined)} functions unreached by the"
          f" commands {', '.join(commands)} and one round of each of"
          f" {', '.join(workloads.WORKLOADS)}", file=sys.stderr)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--census", metavar="WORKLOAD",
                   choices=("mobility_apps", "handover_signalling",
                            "anchor_planning"),
                   help="count the Python calls of one round of WORKLOAD")
    p.add_argument("--tree", default=ROOT,
                   help="source tree of the census (default: this one)")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="workload size of the census (default: full)")
    args = p.parse_args(argv)
    if args.census is None:
        reach_map()
    else:
        print_census(args.tree, census(args.tree, args.census, args.size))


if __name__ == "__main__":
    main()
