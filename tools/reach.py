"""
Reach map: list every function in src/encorsim that neither a CLI command
nor one round of each bench workload calls.

Usage: python3 tools/reach.py

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
"""
import ast
import contextlib
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


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(record)
    try:
        from encorsim import cli
        import workloads
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


if __name__ == "__main__":
    main()
