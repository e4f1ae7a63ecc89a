"""The package's public surface."""

import ast
from pathlib import Path

import tclflex


def test_all_lists_exactly_the_imported_public_names():
    # retiring a name from the imports must retire it from __all__ too
    tree = ast.parse(Path(tclflex.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert len(tclflex.__all__) == len(set(tclflex.__all__))
    assert set(tclflex.__all__) - {"__version__"} == imported
