"""Module layout: no graspforge module imports another module's private
names, so every cross-module dependency goes through a public API."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import graspforge
from graspforge import errors
from graspforge.config import RunConfig

PACKAGE = Path(graspforge.__file__).parent


def private_imports(path: Path) -> list[str]:
    """`from <graspforge module> import <name>` lines in one file where the
    module path or an imported name starts with an underscore."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0 and parts[0] != "graspforge":
            continue
        for name in parts + [alias.name for alias in node.names]:
            if name.startswith("_"):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} imports {name}")
    return found


def test_no_private_cross_module_imports():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    assert [line for path in modules for line in private_imports(path)] == []


# Calls that open, read, write or probe a file; `json.load` counts, json.loads does not.
FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes",
              "is_file", "exists", "isfile"}


def file_io_calls(path: Path) -> list[str]:
    """Calls in one file of a function or method named in FILE_CALLS, or
    of json.load."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in FILE_CALLS or ast.unparse(func) == "json.load":
            found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} calls {ast.unparse(func)}")
    return found


def test_only_fileio_touches_files():
    """Every input is read through `fileio.read_input` and every output
    written through `fileio.atomic_write`, so one place maps a missing or
    unreadable file to a named error; no other module does file I/O."""
    assert [line for path in sorted(PACKAGE.rglob("*.py")) if path.name != "fileio.py"
            for line in file_io_calls(path)] == []


def pose_applications(path: Path) -> list[str]:
    """`.apply(` calls in one file, each with its enclosing definition."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "apply":
                found.append(f"{path.relative_to(PACKAGE)}:{child.lineno} {where} "
                             f"calls {ast.unparse(child.func)}")
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, child.name if named else where)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return found


def test_only_scene_poses_pieces():
    """`scene` is the one module that poses pieces into the world frame
    (`Pose3.apply`, defined in `geometry`); the grasp oracle reads
    `Scene.bodies` rather than posing its own copy."""
    assert [line for path in sorted(PACKAGE.rglob("*.py"))
            if path.name != "scene.py" and path.parent.name != "geometry"
            for line in pose_applications(path)] == []


CONCURRENCY = {"threading", "concurrent", "multiprocessing"}


def imported_modules(node: ast.AST) -> list[str]:
    """Absolute module names an import statement loads; [] for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def concurrency_imports(path: Path) -> list[str]:
    """Imports in one file of a module named in CONCURRENCY or below it."""
    return [f"{path.relative_to(PACKAGE)}:{node.lineno} imports {name}"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            for name in imported_modules(node) if name.split(".")[0] in CONCURRENCY]


def test_only_model_runs_threads():
    """Concurrency has one home: `model` runs the conv stages' sample spans
    on a thread pool, and no other module imports a threading or process
    module."""
    assert [line for path in sorted(PACKAGE.rglob("*.py")) if path.name != "model.py"
            for line in concurrency_imports(path)] == []


# The package modules the network module may import.
MODEL_DEPENDENCIES = {"errors", "fileio"}


def package_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) of each package module one top-level file imports,
    relative imports resolved against the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names = [node.module] if node.module else [a.name for a in node.names]
        else:
            names = [name.removeprefix("graspforge.") for name in imported_modules(node)
                     if name.startswith("graspforge.")]
        found.extend((node.lineno, name) for name in names)
    return found


def test_model_stands_alone():
    """The network loads without the scene, sampler, depth or geometry
    modules: `model` imports only `errors` and `fileio` from the package,
    so training needs nothing of the simulation."""
    assert [f"model.py:{line} imports {name}"
            for line, name in package_imports(PACKAGE / "model.py")
            if name.split(".")[0] not in MODEL_DEPENDENCIES] == []


# The modules that may call scipy, each only from inside a function.
SCIPY_HOMES = {Path("geometry/hull.py"), Path("depthproc.py")}


def scipy_imports(path: Path) -> list[str]:
    """Imports in one file of scipy or a module below it, each marked as
    made at module level or inside a function."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            found.extend(f"{path.relative_to(PACKAGE)}:{child.lineno} imports {name} "
                         f"{'in a function' if in_function else 'at module level'}"
                         for name in imported_modules(child) if name.split(".")[0] == "scipy")
            visit(child, in_function or isinstance(child, (ast.FunctionDef,
                                                           ast.AsyncFunctionDef)))

    visit(ast.parse(path.read_text(), str(path)), False)
    return found


def test_scipy_is_loaded_where_it_is_called():
    """Only `geometry/hull.py` (Qhull) and `depthproc.py` (the normal fit's
    k-d tree, the crop's interpolation) call scipy, and both import it inside
    the function that calls it: loading the package, as `train` and `report`
    do, loads no scipy module."""
    assert [line for path in sorted(PACKAGE.rglob("*.py"))
            for line in scipy_imports(path)
            if path.relative_to(PACKAGE) not in SCIPY_HOMES
            or line.endswith("at module level")] == []


# The exceptions that skip a scene, and the modules that may catch them.
SCENE_SKIPS = {"Overfilled", "NoCandidates"}
SKIP_HOMES = {"simlab.py"}


def skip_handlers(path: Path) -> list[str]:
    """`except` clauses in one file that name an exception in SCENE_SKIPS."""
    return [f"{path.relative_to(PACKAGE)}:{node.lineno} catches {name}"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            for name in sorted({getattr(n, "id", None) or getattr(n, "attr", None)
                                for n in ast.walk(node.type)} & SCENE_SKIPS)]


def test_scene_skips_have_one_home():
    """A skipped scene is counted in one place: `simlab`'s two scene
    generators, which every command, the fused generator and the
    evaluation walk scenes through. `settled_scenes` catches Overfilled
    and `sampled_scenes` catches NoCandidates in its resample loop; no
    other module catches either."""
    assert [line for path in sorted(PACKAGE.rglob("*.py")) if path.name not in SKIP_HOMES
            for line in skip_handlers(path)] == []


def raised_names(path: Path) -> set[str]:
    """Names of the exceptions that `raise` statements in one file raise,
    called (`raise X(...)`) or not (`raise X`)."""
    return {getattr(exc, "id", None) or getattr(exc, "attr", None)
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Raise) and node.exc is not None
            for exc in [getattr(node.exc, "func", node.exc)]}


def test_every_error_type_is_raised():
    """Every GraspForgeError subclass in `errors.py` is raised somewhere in
    the package: an error type that nothing raises names a failure no
    command can report."""
    types = [name for name, value in vars(errors).items()
             if isinstance(value, type) and issubclass(value, errors.GraspForgeError)
             and value is not errors.GraspForgeError]
    assert len(types) > 5
    raised = set().union(*map(raised_names, PACKAGE.rglob("*.py")))
    assert [name for name in types if name not in raised] == []


ENVIRONMENT_READS = {"environ", "environb", "getenv"}


def environment_reads(path: Path) -> list[str]:
    """Uses in one file of a name in ENVIRONMENT_READS: as an attribute
    (`os.environ`), a bare name, or an imported name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        name = (getattr(node, "attr", None) or getattr(node, "id", None)
                or (node.name if isinstance(node, ast.alias) else None))
        if name in ENVIRONMENT_READS:
            found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} reads {name}")
    return found


def test_no_environment_reads():
    """A run is set by its flags and its --config file alone: no module
    reads an environment variable, so a caller's shell cannot change it."""
    assert [line for path in sorted(PACKAGE.rglob("*.py"))
            for line in environment_reads(path)] == []


# Public names that no code in the package calls, each kept on purpose.
ENTRY_POINTS = {
    "main",              # cli: the `graspforge` console script in pyproject.toml
    "generate_dataset",  # simlab: the fused run that the staged CLI chain must match
    "replay_sample",     # simlab: re-runs the oracle on a stored row; replay must give its label
}


CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def unreferenced_public_names() -> list[str]:
    """Public functions, classes, methods and module-level UPPER_CASE
    constants that no live package code reads.

    A module-level or class-level definition is live when its name is an
    entry point or a dunder, or is read by module-level code or by a live
    definition: a method is read as an attribute (`x.name`), anything else
    as an attribute or a bare name that is not a local variable of the
    reader. A constant's value counts as module-level code. Attributes of
    imported modules (`np.zeros`) are not reads, and neither are the
    re-exports in `geometry/__init__.py`. Matching is by name, so a method
    that shares its name with an attribute read anywhere counts as live.
    """
    defs = []     # (id, read form of the name, "file:line name")
    reads = {}    # id of the enclosing definition, or None -> names read
    stores = {}   # the same ids -> local variable and parameter names

    def visit(node, owner, modules, rel, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and (owner is None or in_class):
                form = "." + child.name if in_class else child.name
                defs.append((id(child), form, f"{rel}:{child.lineno} {child.name}"))
                visit(child, id(child), modules, rel, isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign)) and owner is None:
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                defs.extend((id(name), name.id, f"{rel}:{name.lineno} {name.id}")
                            for target in targets for name in ast.walk(target)
                            if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id))
            if isinstance(child, ast.Name):
                kind = reads if isinstance(child.ctx, ast.Load) else stores
                kind.setdefault(owner, set()).add(child.id)
            elif isinstance(child, ast.arg):
                stores.setdefault(owner, set()).add(child.arg)
            elif isinstance(child, ast.Attribute) and not (
                    isinstance(child.value, ast.Name) and child.value.id in modules):
                reads.setdefault(owner, set()).update((child.attr, "." + child.attr))
            visit(child, owner, modules, rel, False)

    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        if rel == Path("geometry/__init__.py"):
            continue
        tree = ast.parse(path.read_text(), str(path))
        modules = {alias.asname or alias.name.split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        visit(tree, None, modules, rel, False)

    def read_by(owner):
        return reads.get(owner, set()) - (stores.get(owner, set()) if owner else set())

    live_names = set(ENTRY_POINTS) | read_by(None)
    live = set()
    grew = True
    while grew:
        grew = False
        for key, form, _ in defs:
            if key not in live and (form in live_names or form.startswith(("__", ".__"))):
                live.add(key)
                live_names |= read_by(key)
                grew = True
    return [where for key, form, where in defs
            if key not in live and not form.lstrip(".").startswith("_")]


def test_no_product_code_only_tests_call():
    assert unreferenced_public_names() == []


def test_every_run_config_key_is_read():
    """Each RunConfig key is read by name (`x.<key>`) somewhere in the
    package; the generic `fields()` loops that parse and override keys do
    not count, so a key that nothing uses fails here."""
    reads = {node.attr for path in PACKAGE.rglob("*.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert [f.name for f in fields(RunConfig) if f.name not in reads] == []
