"""The README's command-line usage stays in step with the parser."""

import argparse
import re
from pathlib import Path

from acfront.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """The commands of the README's "Command line" code block, each joined
    with its continuation lines (those not starting with ``acfront``)."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    commands: list[str] = []
    for line in block.splitlines():
        if line.startswith("acfront "):
            commands.append(line)
        elif line.strip():
            assert commands, f"continuation line before any command: {line!r}"
            commands[-1] += " " + line.strip()
    return commands


def test_readme_command_line_is_accepted_by_parser():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    commands = readme_commands()
    assert {c.split()[1] for c in commands} == set(subparsers)
    for command in commands:
        name = command.split()[1]
        known = subparsers[name]._option_string_actions
        flags = re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", command)
        unknown = [f for f in flags if f not in known]
        assert not unknown, f"README `acfront {name}` lists unknown flags {unknown}"
