"""Checks on the library source itself, read as syntax trees."""

import ast
from collections import defaultdict
from dataclasses import fields
from pathlib import Path

import diracgap
from diracgap.expcli import ExperimentConfig

SOURCES = sorted(Path(diracgap.__file__).parent.glob("*.py"))
# Defaults that only callers outside src/ pass: the tests call main(argv),
# and the benchmark's setup probe (a `python -c` string in perfbench/run.py)
# calls load_zero_table("embedded", min_count=K).
EXTERNAL_DEFAULTS = {
    "expcli.main(argv=)", "zeta.load_zero_table(source=)", "zeta.load_zero_table(min_count=)",
}


def public_functions(tree):
    """(qualified name, is a method, node) of every public function and method."""
    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        owner, members = (f"{node.name}.", node.body) if is_class else ("", [node])
        for f in members:
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                yield owner + f.name, is_class, f


def test_every_public_function_is_used_by_the_library():
    # A public function or method that no module of the library names is code
    # that only the tests reach: an oracle belongs in tests/oracles.py.
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{module}.{name}" for module, tree in trees.items()
              for name, _, f in public_functions(tree) if f.name not in used]
    assert unused == []


def test_every_defaulted_parameter_is_passed_by_some_caller():
    # A default that no call overrides is a parameter with one value: it
    # belongs in a constant, together with whatever validation it needed.
    passed = defaultdict(set)  # function name -> positions and keywords passed
    for path in SOURCES:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                passed[name].add("*")  # unpacked arguments may pass anything
            passed[name].update(range(len(call.args)))
            passed[name].update(k.arg for k in call.keywords)
    unpassed = []
    for path in SOURCES:
        for name, is_method, f in public_functions(ast.parse(path.read_text())):
            positional = f.args.posonlyargs + f.args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
            offset = 1 if is_method and not static else 0  # self or cls
            defaulted = [(i - offset, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(f.args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
                          if d is not None]
            unpassed += [f"{path.stem}.{name}({arg}=)" for i, arg in defaulted
                         if not {i, arg, "*"} & passed[f.name]]
    assert sorted(set(unpassed) - EXTERNAL_DEFAULTS) == []


def test_every_config_field_is_read_by_the_pipeline():
    # A configuration key that only the parser reads changes nothing but the
    # manifest's config echo: a knob without an effect.
    parser = {"parse_config", "validate_config"}
    read = set()
    for path in SOURCES:
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, ast.FunctionDef) and f.name not in parser:
                read |= {node.attr for node in ast.walk(f) if isinstance(node, ast.Attribute)
                         and getattr(node.value, "id", None) == "cfg"}
    assert sorted({f.name for f in fields(ExperimentConfig)} - read) == []
