import ast
from pathlib import Path

import heyde


def test_export_list_has_no_duplicates():
    assert len(heyde.__all__) == len(set(heyde.__all__))


def test_every_export_resolves():
    for name in heyde.__all__:
        assert getattr(heyde, name) is not None, name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from heyde import *", namespace)
    assert set(heyde.__all__) <= namespace.keys()


def test_default_s_scale_is_exported():
    assert "default_s_scale" in heyde.__all__
    assert heyde.default_s_scale is heyde.symmetry.default_s_scale


def test_only_measures_reads_the_term_view():
    # the column layout of a measure and its Term view stay behind one module
    package = Path(heyde.__file__).parent
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "measures.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("terms", "atom")
    ]
    assert readers == []
