"""The package's modules import one way: each from modules strictly below
it, so no import cycle can form at run time. Each imports at module level
only; `cli` also imports the package itself and reads a route's kernel
through it, as `fouriermoments.<module>.<name>`, where the route runs;
nothing imports `cli`. `errors`, `closed` and `cli` import no numpy at
module level. Importing a module of the package runs it, though `import
fouriermoments` registers each one unexecuted. The Monte Carlo estimators
leave `numpy.random` unimported.
No function takes a budget: every gate reads the scoped one in `errors`."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fouriermoments"

# The import order, lowest first; `model` sits beside it on `errors`.
CHAIN = ["errors", "closed", "partitions", "truncated", "limits", "asymptotics", "cli"]
BELOW = {name: set(CHAIN[:i]) for i, name in enumerate(CHAIN)}
BELOW["model"] = {"errors"}
BELOW["cli"].add("model")


def _package_imports(tree: ast.Module):
    """(node, target module) for every import of a package module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node, node.module.split(".")[0]
            else:  # from . import x, y
                yield from ((node, alias.name) for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else \
                [alias.name for alias in node.names]
            for name in names:
                parts = name.split(".")
                if parts[0] == "fouriermoments":
                    yield node, parts[1] if len(parts) > 1 else "__init__"


def _names(path: Path):
    """(line, name) for every name, attribute and imported alias in a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or \
            (node.name if isinstance(node, ast.alias) else None)
        if name:
            yield node.lineno, name


def test_every_module_has_a_place_in_the_order():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(BELOW)


def test_imports_run_down_the_order_at_module_level():
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, target in _package_imports(tree):
            if node not in tree.body:
                problems.append(f"{module}:{node.lineno} imports {target} inside a body")
            if module == "cli" and target in ("__init__", "__version__"):
                continue  # the package itself, through which cli reads its kernels
            if target not in BELOW[module]:
                problems.append(f"{module}:{node.lineno} imports {target}, not below it")
    assert problems == []


def _module_level_names(module: str) -> set[str]:
    """The names a module's source defines at module level (not those it imports)."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return names


def test_cli_reads_each_kernel_by_its_module_and_a_name_defined_there():
    # a misspelt kernel would otherwise fail only at a user's first cache miss
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    problems, reads = [], 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Name) and node.id == "fouriermoments"):
            continue
        module, name = parents.get(node), parents.get(parents.get(node))
        if not (isinstance(module, ast.Attribute) and isinstance(name, ast.Attribute)):
            problems.append(f"cli:{node.lineno} reads the package, not a module's name")
        elif module.attr not in BELOW["cli"]:
            problems.append(f"cli:{node.lineno} reads {module.attr}, not below cli")
        elif name.attr not in _module_level_names(module.attr):
            problems.append(f"cli:{node.lineno} reads {module.attr}.{name.attr}, not defined there")
        else:
            reads += 1
    assert problems == [] and reads > 0


def test_partitions_alone_owns_the_counting_kernel():
    # the table's coding, the orbit scan and the period histogram live in
    # `partitions`; `truncated` reads the histogram from there, and `limits`
    # reads it without `truncated`
    kernel = {"_word_digits", "_code_weights", "_row_codes", "_code_periods", "_orbit_scan",
              "_rgs_array", "_rgs_orbits", "_stirling_row"}
    problems = [f"{path.stem}:{line} names {name}" for path in sorted(PACKAGE.glob("*.py"))
                if path.stem != "partitions" for line, name in _names(path) if name in kernel]
    limits = ast.parse((PACKAGE / "limits.py").read_text(encoding="utf-8"))
    problems += [f"limits:{node.lineno} imports truncated"
                 for node, target in _package_imports(limits) if target == "truncated"]
    truncated = ast.parse((PACKAGE / "truncated.py").read_text(encoding="utf-8"))
    for node in ast.walk(truncated):
        names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else \
            [node.module] if isinstance(node, ast.ImportFrom) and not node.level else []
        if any(name.split(".")[0] == "numpy" for name in names):
            problems.append(f"truncated:{node.lineno} imports numpy")
    assert problems == []


def test_the_numpy_free_modules_import_no_numpy_at_module_level():
    # a command whose values come from the cache runs these three alone
    problems = []
    for module in ("errors", "closed", "cli"):
        nodes = list(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body)
        for node in nodes:  # every node outside a function body, which runs on import
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nodes.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                problems.append(f"{module}:{node.lineno} imports numpy")
    assert problems == []


def test_no_function_takes_a_budget():
    # the limit is set by `with budget(ops)` and read by the gates; only
    # `errors` (its default) and `cli` (the default of --budget) name DEFAULT_BUDGET
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
                names += [arg.arg for arg in (args.vararg, args.kwarg) if arg]
                if "budget" in names:
                    problems.append(f"{module}:{node.lineno} takes a budget parameter")
        problems += [f"{module}:{line} names DEFAULT_BUDGET" for line, name in _names(path)
                     if name == "DEFAULT_BUDGET" and module not in ("errors", "cli")]
    assert problems == []


def test_only_errors_reads_the_budget():
    # every gate goes through `errors._check_budget`, so no kernel keeps a
    # short-circuit of its own on the scoped limit
    problems = [f"{path.stem}:{line} names _BUDGET" for path in sorted(PACKAGE.glob("*.py"))
                for line, name in _names(path) if name == "_BUDGET" and path.stem != "errors"]
    assert problems == []


def _integer_constants(tree: ast.Module) -> set[str]:
    """Module-level names bound to integer arithmetic on literals and such names."""
    constants = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and all(
                isinstance(part, (ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop, ast.Load))
                or isinstance(part, ast.Constant) and type(part.value) is int
                or isinstance(part, ast.Name) and part.id in constants
                for part in ast.walk(node.value)):
            constants.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return constants


def test_no_size_cap_raises_a_parameter_error():
    # the budget is the one size rule: no function refuses an argument with a
    # ParameterError for comparing above or below a module-level integer
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants = _integer_constants(tree)
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            arguments = {arg.arg for arg in ast.walk(function.args) if isinstance(arg, ast.arg)}
            for node in ast.walk(function):
                if not (isinstance(node, ast.If) and any(
                        isinstance(part, ast.Compare) for part in ast.walk(node.test))):
                    continue
                names = {part.id for part in ast.walk(node.test) if isinstance(part, ast.Name)}
                raises = any(isinstance(part, ast.Raise) and isinstance(part.exc, ast.Call)
                             and getattr(part.exc.func, "id", None) == "ParameterError"
                             for statement in node.body for part in ast.walk(statement))
                if raises and names & arguments and names & constants:
                    problems.append(f"{path.stem}:{node.lineno} caps {sorted(names & arguments)}")
    assert problems == []


def test_only_cli_main_lifts_the_int_to_str_limit():
    # the CLI prices every value it writes, so its `main` alone lifts the
    # interpreter's int-to-str limit, and restores it; a library caller keeps it
    places = []
    for path in sorted(PACKAGE.glob("*.py")):
        functions = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for line, name in _names(path):
            if name == "set_int_max_str_digits":
                owners = [f.name for f in functions if f.lineno <= line <= f.end_lineno]
                places.append((path.stem, owners[-1] if owners else None))
    assert places == [("cli", "main")] * 2


def test_only_errors_checks_integers():
    # every integer argument goes through `errors._validate_int`, so no module
    # keeps an isinstance check on int or bool of its own
    problems = []
    for path in sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "errors.py"}):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else node.args[1:]
                if {getattr(kind, "id", None) for kind in kinds} & {"int", "bool"}:
                    problems.append(f"{path.stem}:{node.lineno} checks an int")
    assert problems == []


def test_estimators_do_not_import_numpy_random():
    # the Monte Carlo draws come from the package's own Philox kernel
    probe = ("import sys, numpy\n"
             "loaded = 'numpy.random' in sys.modules\n"
             "from fouriermoments.model import mc_estimate_c, mc_estimate_delta\n"
             "mc_estimate_c(2, 2, 2, 2, samples=3, seed=1)\n"
             "mc_estimate_delta(2, 2, 3, samples=3, seed=1)\n"
             "print(loaded, 'numpy.random' in sys.modules)\n")
    src = PACKAGE.parent
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    loaded_by_numpy, loaded = done.stdout.split()
    if loaded_by_numpy == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert loaded == "False"


def test_importing_a_module_of_the_package_runs_it():
    # `import fouriermoments` puts each module in sys.modules unexecuted;
    # importing one, in any form, runs it, so a caller that imports a
    # module before a timed region times none of its loading
    probe = ("import json, sys, types\n"
             "import fouriermoments\n"
             "names = ('limits', 'model', 'asymptotics')\n"
             "ran = lambda: [type(sys.modules[f'fouriermoments.{n}']) is types.ModuleType\n"
             "               for n in names]\n"
             "steps = [ran()]\n"
             "from fouriermoments import limits\n"
             "steps.append(ran())\n"
             "import fouriermoments.model\n"
             "steps.append(ran())\n"
             "fouriermoments.asymptotics\n"
             "steps.append(ran())\n"
             "print(json.dumps(steps))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[False, False, False], [True, False, False],
                                       [True, True, False], [True, True, True]]


def test_threads_that_first_use_a_module_together_see_it_whole():
    # with `importlib.util.LazyLoader` on Python 3.11 the threads but one
    # read a half-run `model` and raised AttributeError, 12 runs in 12
    probe = ("import sys, threading\n"
             "import fouriermoments\n"
             "names = ('mc_estimate_c', 'PhaseMatrix', 'dita_deform', 'magic_unitary')\n"
             "barrier, errors = threading.Barrier(len(names)), []\n"
             "def use(name):\n"
             "    barrier.wait()\n"
             "    try:\n"
             "        getattr(fouriermoments, name)\n"
             "    except AttributeError as exc:\n"
             "        errors.append(str(exc))\n"
             "threads = [threading.Thread(target=use, args=(n,)) for n in names]\n"
             "for thread in threads: thread.start()\n"
             "for thread in threads: thread.join()\n"
             "model = sys.modules['fouriermoments.model']\n"
             "print(errors == [] and all(getattr(fouriermoments, n) is getattr(model, n)\n"
             "                           for n in names))\n")
    for _ in range(3):
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True"]


def test_lazy_exports_resolve_to_their_defining_modules():
    # the package exports each name on first use (PEP 562)
    import fouriermoments
    namespace = {}
    exec("from fouriermoments import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fouriermoments.__all__)
    for name in fouriermoments.__all__:
        value = getattr(fouriermoments, name)
        assert value.__module__.startswith("fouriermoments."), name
        assert getattr(sys.modules[value.__module__], name) is value is namespace[name], name
        assert name in dir(fouriermoments), name
    # each module of the package is an attribute, the one in sys.modules
    for module in set(fouriermoments._MODULE_OF.values()):
        assert getattr(fouriermoments, module) is sys.modules[f"fouriermoments.{module}"]
    with pytest.raises(AttributeError, match="no_such_name"):
        fouriermoments.no_such_name
