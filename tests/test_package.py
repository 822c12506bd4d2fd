"""The package surface: ``chiral_qfim.__all__`` against ``__init__.py``."""

import ast
import pathlib

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
