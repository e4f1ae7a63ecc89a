"""The package's public surface."""

import ast
import re
from pathlib import Path

import tclflex
from tclflex import scenario
from tclflex.cli import build_parser


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


def test_readme_cli_and_scenario_list_the_same_subcommands():
    # the scenario table is the one list; the CLI and the README follow it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (table,) = re.findall(r"Subcommands:\n\n((?:\|.*\n)+)", readme)
    documented = [name for row in table.splitlines()[2:] for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    (positional,) = [action for action in build_parser()._actions if action.dest == "subcommand"]
    assert documented == list(positional.choices) == list(scenario.SUBCOMMANDS)
