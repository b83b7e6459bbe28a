"""tools/reach.py keys each def as its code object does; a key that did
not match would list the function as unreached."""
import importlib.util
import os

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
