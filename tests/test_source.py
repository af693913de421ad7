"""Checks on the library source itself, read as syntax trees."""

import ast
import json
import re
from collections import defaultdict
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import diracgap
from diracgap.expcli import ExperimentConfig, compute_run, main, parse_config, write_artifacts
from diracgap.tracekit import TraceReport

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
    parser = {"parse_config", "__post_init__"}
    read = set()
    for path in SOURCES:
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, ast.FunctionDef) and f.name not in parser:
                read |= {node.attr for node in ast.walk(f) if isinstance(node, ast.Attribute)
                         and getattr(node.value, "id", None) == "cfg"}
    assert sorted({f.name for f in fields(ExperimentConfig)} - read) == []


def test_every_public_constant_is_read_by_the_library():
    # A public constant that no module reads exists only for the tests, which
    # can state the value themselves.
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))}
    constants = {target.id for tree in trees for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)
                 and target.id.isupper() and not target.id.startswith("_")}
    assert sorted(constants - read) == []


def is_main_guard(node):
    """Whether a statement is `if __name__ == "__main__":`."""
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and ast.unparse(node.test) in {"__name__ == '__main__'", "'__main__' == __name__"})


def test_only_the_package_main_is_a_script():
    # `python -m diracgap` and the diracgap console script are the entry points;
    # a second one in a submodule runs under runpy after the package imported it.
    scripts = [path.name for path in SOURCES
               if any(is_main_guard(node) for node in ast.parse(path.read_text()).body)]
    assert scripts == ["__main__.py"]


# The only function that creates directories or opens files for writing: the
# writers build each file's text, and _emit writes its bytes.
WRITERS = {"_emit"}


def writes_output(call):
    """Whether a call creates a directory or writes a file (`open` in a w, a, x or + mode)."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    if name in {"mkdir", "makedirs", "write_text", "write_bytes", "touch"}:
        return True
    if name != "open":
        return False
    # the mode is open(file, mode) or path.open(mode), or passed as mode=
    position = 1 if isinstance(call.func, ast.Name) else 0
    modes = call.args[position:position + 1] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)


def test_output_is_created_only_by_emit():
    sites = [f"{path.stem}.{getattr(top, 'name', '<module>')}:{call.lineno}"
             for path in SOURCES for top in ast.parse(path.read_text()).body
             for call in ast.walk(top) if isinstance(call, ast.Call) and writes_output(call)
             and getattr(top, "name", None) not in WRITERS]
    assert sites == []


def imported_modules(node):
    """The modules an import statement names (none for other nodes)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_module_imports_scipy():
    # floquet calls the LAPACK in NumPy's own OpenBLAS; SciPy is a test dependency
    # only, and an import of scipy.linalg costs about 0.4 s of start-up.
    imports = [f"{path.stem}:{node.lineno}" for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text()))
               for name in imported_modules(node) if name.split(".")[0] == "scipy"]
    assert imports == []


def test_only_floquet_starts_threads():
    # The pipeline runs in one process; the fiber solves on threads of it are the one
    # measured exception.
    imports = sorted(f"{path.stem}:{name}" for path in SOURCES
                     for node in ast.walk(ast.parse(path.read_text()))
                     for name in imported_modules(node)
                     if name.split(".")[0] in {"threading", "multiprocessing", "concurrent"})
    assert imports == ["floquet:threading"]


def test_no_module_reads_the_environment():
    # A run depends on its configuration alone: no module reads os.environ,
    # os.environb or os.getenv, as an attribute or imported from os.
    names = {"environ", "environb", "getenv"}
    reads = sorted(f"{path.stem}:{node.lineno}" for path in SOURCES
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute) and node.attr in names
                   or isinstance(node, ast.ImportFrom) and node.module == "os"
                   and names & {alias.name for alias in node.names})
    assert reads == []


# The BLAS entry points of numpy: OpenBLAS splits long dot and matrix products
# across its threads, so their last bits depend on the thread count.
BLAS_CALLS = {"dot", "matmul", "tensordot", "inner", "vdot"}


def blas_sites(tree):
    """Line numbers of the matrix products and BLAS calls in a module, and of the
    einsum calls that do not pass optimize=False (einsum may then call tensordot)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in BLAS_CALLS:
                yield node.lineno
            elif node.func.attr == "einsum" and not any(
                    k.arg == "optimize" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in node.keywords):
                yield node.lineno


def test_no_module_calls_blas():
    # The trace's bits must not depend on the BLAS thread count;
    # test_trace_is_bitwise_stable_across_blas_threads checks it on three runs.
    sites = [f"{path.stem}:{line}" for path in SOURCES
             for line in blas_sites(ast.parse(path.read_text()))]
    assert sites == []


def test_the_blas_check_sees_every_form():
    code = ("a @ b\na @= b\nnp.dot(a, b)\na.dot(b)\nnp.matmul(a, b)\nnp.tensordot(a, b)\n"
            "np.inner(a, b)\nnp.vdot(a, b)\nnp.einsum('ij,jk', a, b)\n"
            "np.einsum('ij,jk', a, b, optimize=True)\nnp.einsum('ij,jk', a, b, optimize=False)\n")
    assert sorted(blas_sites(ast.parse(code))) == list(range(1, 11))


def keyword_is_false(call, name):
    return any(k.arg == name and isinstance(k.value, ast.Constant) and k.value.value is False
               for k in getattr(call, "keywords", ()))


def compared_array_fields(tree):
    """Class.field of every dataclass field annotated np.ndarray that the
    generated __eq__ compares: `==` on two such instances would raise."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d for d in node.decorator_list
                      if ast.unparse(getattr(d, "func", d)) in {"dataclass", "dataclasses.dataclass"}]
        if not decorators or any(keyword_is_false(d, "eq") for d in decorators):
            continue
        for item in node.body:
            if (isinstance(item, ast.AnnAssign) and ast.unparse(item.annotation) == "np.ndarray"
                    and not keyword_is_false(item.value, "compare")):
                yield f"{node.name}.{item.target.id}"


def test_no_dataclass_compares_an_array_field():
    compared = [f"{path.stem}.{name}" for path in SOURCES
               for name in compared_array_fields(ast.parse(path.read_text()))]
    assert compared == []


def test_the_array_field_check_sees_every_form():
    code = ("@dataclass(frozen=True)\nclass A:\n    x: np.ndarray\n"
            "    y: np.ndarray = field(repr=False)\n    z: np.ndarray = field(compare=False)\n"
            "    n: int = 0\n"
            "@dataclass\nclass B:\n    x: np.ndarray = None\n"
            "@dataclass(frozen=True, eq=False)\nclass C:\n    x: np.ndarray\n"
            "class D:\n    x: np.ndarray\n")
    assert list(compared_array_fields(ast.parse(code))) == ["A.x", "A.y", "B.x"]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_the_files_run_writes(tmp_path):
    # The sentence of README.md that begins "`run` writes" counts and names every
    # artifact, in the order write_artifacts writes them.
    readme = " ".join(README.read_text().split())
    sentence = re.search(r"`run` writes (.*?)\.\s", readme).group(1)
    listed = re.findall(r"`([\w.]+\.\w+)`", sentence)
    run = compute_run(parse_config('{"M": 8, "N_kappa": 41, "n_bands": 4, "N_P": 5, "N_H": 5}'))
    written = list(write_artifacts(run, tmp_path).paths)
    assert listed == written
    assert re.match(r"these (\d+) files: ", sentence).group(1) == str(len(written))


def test_readme_names_every_subcommand_report_field_and_check(capsys, tmp_path, default_run):
    # README's `diracgap <subcommand>` block lists exactly the parser's subcommands,
    # and every trace_report.json key, diagnostics.json key and check name appears in
    # backticks.
    readme = README.read_text()
    with pytest.raises(SystemExit):
        main(["--help"])
    parsed = re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1).split(",")
    assert sorted(re.findall(r"^diracgap (\w+) ", readme, re.MULTILINE)) == sorted(parsed)
    checks = {call.args[0].value for path in SOURCES for call in ast.walk(ast.parse(path.read_text()))
              if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Check"}
    write_artifacts(default_run, tmp_path)
    diagnostics = set(json.loads((tmp_path / "diagnostics.json").read_text()))
    named = {f.name for f in fields(TraceReport)} | diagnostics | checks
    assert checks and sorted(named - set(re.findall(r"`(\w+)`", readme))) == []


def test_readme_configuration_block_is_the_default_config():
    # README's "Configuration keys (all optional)" JSON block is ExperimentConfig's
    # defaults, key for key, with the potential as a JSON object.
    block = re.search(r"Configuration keys \(all optional\):\s*```json\n(.*?)```",
                      README.read_text(), re.DOTALL).group(1)
    assert json.loads(block) == json.loads(json.dumps(asdict(ExperimentConfig())))
