"""The README's command-line usage and config keys stay in step with the code."""

import argparse
import re
from pathlib import Path

import pytest

from acfront.cli import build_parser
from acfront.harness import _EXPERIMENTS, _GENERATORS, _SCALAR_KEYS, ExperimentSpec

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


def readme_config_text() -> str:
    """The README's config-file paragraph, joined into one line."""
    text = README.read_text(encoding="utf-8")
    para = text.split("Config files are flat", 1)[1].split("\n\n", 1)[0]
    return " ".join(para.split())


def test_readme_scalar_config_keys_match_the_parser():
    listed = readme_config_text().split("Scalar keys:", 1)[1].split(";", 1)[0]
    keys = set(re.findall(r"`(\w+)`", listed))
    assert keys == set(_SCALAR_KEYS) | {"name"}


def test_readme_tolerance_defaults_match_the_spec():
    listed = readme_config_text().split("criteria and defaults:", 1)[1]
    listed = re.split(r"\.\s", listed, maxsplit=1)[0]
    tolerances = {k: float(v) for k, v in re.findall(r"`(\w+)` = ([\d.]+)", listed)}
    assert tolerances == ExperimentSpec(name="thm22").tolerances


def test_readme_experiment_names_match_the_cli_and_the_table():
    experiment = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices["experiment"]
    choices = next(a for a in experiment._actions if a.dest == "name").choices
    usage = next(c for c in readme_commands() if c.startswith("acfront experiment "))
    assert usage.split()[2].split("|") == list(choices)
    listed = readme_config_text().split("`name` (", 1)[1].split(")", 1)[0]
    assert listed.split("|") == list(_EXPERIMENTS)


@pytest.mark.parametrize("gen", list(_GENERATORS))
def test_readme_generator_kinds_keys_and_defaults_match_the_table(gen):
    text = readme_config_text()
    listed = text.split(f"`{gen}_kind` (", 1)[1]
    kinds, sentence = listed.split(")", 1)
    assert kinds.split("|") == list(_GENERATORS[gen])
    sentence = re.split(r"\.\s", sentence, maxsplit=1)[0]
    rows = {}
    for kind, clause in re.findall(r"(\w+) reads ([^;]*)", sentence):
        pairs = re.findall(rf"`{gen}_(\w+)` = (the spec's `seed`|[\d.]+)", clause)
        rows[kind] = {key: None if value.startswith("the") else float(value)
                      for key, value in pairs}
    assert rows == _GENERATORS[gen]
    keys = set(re.findall(rf"`{gen}_(\w+)`", text))
    assert keys == {"kind"}.union(*_GENERATORS[gen].values())
