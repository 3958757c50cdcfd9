"""The README's quick-start block against the recipe table, `scripts/recipe.py`."""

from __future__ import annotations

import re
from pathlib import Path

import recipe

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_quick_start() -> tuple[list[str], list[list[str]]]:
    """The SET and the eeglm commands of the README's first shell block
    under "Quick start", each command as the shell would pass it: lines
    joined at a trailing backslash, split on whitespace, "$SET" split on
    whitespace in its place (its quotes kept, as an unquoted expansion
    keeps them)."""
    section = README.read_text().split("\n## Quick start\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    set_words = re.search(r"^SET='([^']*)'", block, re.M).group(1).split()
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("eeglm "):
            words = line.split()[1:]
            commands.append([w for word in words for w in (set_words if word == "$SET" else [word])])
    return set_words, commands


def test_the_readme_quick_start_is_the_recipe_table():
    set_words, commands = readme_quick_start()
    assert set_words == list(recipe.SET)
    assert commands == recipe.quick_start()

