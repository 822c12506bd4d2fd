"""The package surface: ``chiral_qfim.__all__`` against ``__init__.py``."""

import ast
import pathlib
import re

import pytest

import chiral_qfim


def _imported_names() -> list:
    tree = ast.parse(pathlib.Path(chiral_qfim.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]


def test_every_export_resolves_once():
    exported = chiral_qfim.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(chiral_qfim, name), name


def test_exports_match_the_imports():
    imported = _imported_names()
    assert len(set(imported)) == len(imported)
    assert sorted(chiral_qfim.__all__) == sorted(imported)


def _module_constants(tree: ast.Module) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return names


def _private_definitions(tree: ast.Module) -> list:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]


def _referenced_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_module_constant_is_read():
    """An UPPER_CASE module constant that nothing in the package reads is a
    stale setting, and a private module-level function or class that
    nothing reads is a stale helper."""
    package = pathlib.Path(chiral_qfim.__file__).parent
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    stale = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _module_constants(tree) + _private_definitions(tree)
        if name not in referenced
    ]
    assert stale == []


def _unread_imports(tree: ast.Module) -> list:
    """Names a module imports (``import a.b`` binds ``a``) and never loads."""
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in loaded]


def test_every_import_is_read():
    """A name a module imports and never reads is a stale import; the package
    ``__init__`` imports to re-export, which the ``__all__`` tests cover."""
    package = pathlib.Path(chiral_qfim.__file__).parent
    stale = [
        f"{path.name}:{name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert stale == []


def _package_imports(tree: ast.Module) -> set:
    """The package modules a module imports from, relatively or by name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("chiral_qfim").lstrip(".")
            if node.level or module != node.module:
                found.update([module.split(".")[0]] if module else [a.name for a in node.names])
    return found


def test_the_two_routes_import_only_their_own_layers():
    """The closed forms and the numeric pipeline check each other, so
    neither imports the other, nor the layers built on both."""
    package = pathlib.Path(chiral_qfim.__file__).parent
    forbidden = {
        "analytic": {"estimation", "experiments", "checks", "cli"},
        "estimation": {"analytic", "experiments", "checks", "cli"},
    }
    for module, banned in forbidden.items():
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        assert _package_imports(tree) & banned == set(), module


def _cache_decorators(tree: ast.Module) -> list:
    """(function, maxsize node or None for ``functools.cache``) of each
    ``functools.lru_cache`` or ``functools.cache`` decorator, bare or called."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "cache":
                found.append((node.name, None))
            elif name == "lru_cache":
                args = {kw.arg: kw.value for kw in call.keywords} if call else {}
                if call and call.args:
                    args["maxsize"] = call.args[0]
                found.append((node.name, args.get("maxsize", ast.Constant(128))))
    return found


def test_no_cache_is_unbounded():
    """Every cache in the package has a literal int bound: ``functools.cache``
    and ``lru_cache(maxsize=None)`` keep every key they ever see."""
    package = pathlib.Path(chiral_qfim.__file__).parent
    caches = {
        f"{path.name}:{function}": maxsize
        for path in sorted(package.glob("*.py"))
        for function, maxsize in _cache_decorators(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert "experiments.py:prepare_input_state" in caches and len(caches) >= 6
    unbounded = [
        name
        for name, maxsize in caches.items()
        if not (isinstance(maxsize, ast.Constant) and isinstance(maxsize.value, int))
    ]
    assert unbounded == []


# the input-kind names, whose comparison is a dispatch on the probe
KIND_NAMES = ("COHERENT", "SINGLE_PHOTON_H", "NOON_HV", "FOCK_ONE_PLUS_ONE_MINUS")


def _kind_comparisons(tree: ast.Module) -> list:
    """Line of each ``==``, ``!=``, ``in`` or ``not in`` with an operand that
    holds an input-kind name or its string value, outside ``InputStateKind``
    and the probe table (``Probe`` and ``PROBES``)."""
    values = {getattr(chiral_qfim, name) for name in KIND_NAMES}
    kept = []

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name in ("InputStateKind", "Probe"):
            return
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PROBES" for t in node.targets
        ):
            return
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops
        ):
            for operand in (node.left, *node.comparators):
                for leaf in ast.walk(operand):
                    if (
                        isinstance(leaf, ast.Name) and leaf.id in KIND_NAMES
                        or isinstance(leaf, ast.Attribute) and leaf.attr in KIND_NAMES
                        or isinstance(leaf, ast.Constant) and leaf.value in values
                    ):
                        kept.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return sorted(set(kept))


def test_no_input_kind_is_compared_outside_the_probe_table():
    """What each input kind is and has lives in one record of ``PROBES``:
    code that compares a kind against one of the names reads the record."""
    package = pathlib.Path(chiral_qfim.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := _kind_comparisons(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_the_readme_quick_start_prints_what_its_comments_say():
    """The README's library example runs as written, each printed value
    matches its comment to 1e-12, and the round trip through
    ``invert_and_bound`` gives back the same bounds."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    printed = re.findall(r"^print\((.+)\) +# (.+?)(?:  \(=.*)?$", block, re.MULTILINE)
    assert len(printed) == 3
    for expression, comment in printed:
        value, expected = eval(expression, namespace), ast.literal_eval(comment)
        if isinstance(expected, float):
            assert value == pytest.approx(expected, rel=0, abs=1e-12), expression
        else:
            assert value == expected, expression
    result, again = namespace["result"], namespace["again"]
    assert again.identifiable == result.identifiable
    assert again.bounds == pytest.approx(result.bounds, rel=1e-12, abs=0)

