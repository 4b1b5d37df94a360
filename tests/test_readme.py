"""The README's examples name only what the package has: the quickstart's
imports, the command line block's commands and the train.cfg example's
keys are read out of README.md and looked up in the code. Its package
layout table has a row for every module, and every name the package
exports resolves."""

import ast
import re
from pathlib import Path

import tvconv
from tvconv import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_block(section: str, lang: str) -> str:
    """The first fenced `lang` block under the `## section` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_quickstart_imports_are_public():
    tree = ast.parse(code_block("Library quickstart", "python"))
    names = [a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "tvconv"
             for a in node.names]
    assert names
    for name in names:
        assert hasattr(tvconv, name) and name in tvconv.__all__, name


def test_every_exported_name_resolves():
    # `from tvconv import *` fails on a name left in __all__ after it went
    assert len(set(tvconv.__all__)) == len(tvconv.__all__)
    for name in tvconv.__all__:
        assert hasattr(tvconv, name), name


def test_command_line_block_names_real_commands():
    commands = re.findall(r"^tvconv (\S+)", code_block("Command line", "sh"), re.M)
    assert commands
    assert set(commands) - set(cli._COMMANDS) == set()


def test_train_cfg_example_keys_are_known():
    keys = [line.partition("=")[0].strip()
            for line in code_block("Command line", "ini").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    assert keys
    assert set(keys) - cli.KNOWN_KEYS["train"] == set()


def test_package_layout_has_a_row_per_module():
    body = README.split("\n## Package layout\n", 1)[1].split("\n## ", 1)[0]
    listed = {name for row in re.findall(r"^\| ([^|]*) \|", body, re.M)
              for name in re.findall(r"`tvconv\.(\w+)`", row)}
    modules = {p.stem for p in Path(tvconv.__file__).parent.glob("*.py")}
    assert listed == modules - {"__init__", "__main__"}
