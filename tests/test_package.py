"""The package's public surface."""

import ast
import re
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


def test_readme_example_runs():
    # guards the README's library example against retired names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
