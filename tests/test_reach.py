"""tools/reach.py keys each def as its code object does; a key that did
not match would list the function as unreached. Its census of a tiny
`handover_signalling` round repeats exactly and counts one
`control.attach` per subscriber of the storm."""
import importlib.util
import os
import subprocess
import sys

from encorsim import control

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
spec = importlib.util.spec_from_file_location(
    "reach", os.path.join(ROOT, "tools", "reach.py"))
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)


def code_keys(code):
    yield code.co_filename, code.co_name, code.co_firstlineno
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from code_keys(const)


def test_every_def_is_keyed_as_its_code_object():
    defined = reach.defined_functions()
    compiled = set()
    for path in {key[0] for key in defined}:
        with open(path, encoding="utf-8") as f:
            compiled.update(code_keys(compile(f.read(), path, "exec")))
    assert set(defined) <= compiled
    qualnames = {qualname for _, qualname in defined.values()}
    # a method under a decorator, a method and a closure
    assert {"HandoverTrace.messages", "Simulator.train",
            "move_counts"} <= qualnames
    assert any(".<locals>." in q for q in qualnames)


def test_census_repeats_and_enters_attach_once_per_subscriber():
    # about 0.4 s: two tiny rounds in processes of their own, one here
    runs = [subprocess.run(
        [sys.executable, os.path.join(reach.ROOT, "tools", "reach.py"),
         "--census", "handover_signalling", "--size", "tiny"],
        capture_output=True, text=True) for _ in range(2)]
    assert [out.returncode for out in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    total = int(lines[0].removeprefix("calls: "))
    in_package = int(lines[1].removeprefix("in src/encorsim: "))
    assert total > in_package > 0 and len(lines) == 23

    calls = reach.census(reach.ROOT, "handover_signalling", "tiny")
    _, workloads = reach.import_tree(reach.ROOT)
    subscribers = workloads.SIZES["tiny"]["handover_signalling"]["ues"]
    # the storm attaches each subscriber; each of the round's two
    # message tables attaches one device of its own
    assert calls[control.attach.__code__] == subscribers + 2
