import re
from dataclasses import replace
from pathlib import Path

from kgt.config import _PARSERS, load_config
from kgt.train import Stage

README = Path(__file__).resolve().parents[1] / "README.md"


def configuration_block() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Configuration") :].split("```")[1]


def test_readme_configuration_block_names_every_key():
    block = configuration_block()
    named = re.findall(r"(?:^|\s)([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)?)\s*=", block, flags=re.M)
    assert len(named) == len(set(named)), "a key is listed twice"
    assert set(named) == set(_PARSERS)


def test_readme_configuration_values_are_the_defaults():
    # pairs on a line are separated by runs of spaces; "#" starts a comment
    pairs = {}
    for line in configuration_block().splitlines():
        line = line.partition("#")[0].strip()
        for pair in re.split(r"\s+(?=[a-z][a-z0-9_.]*\s*=)", line) if line else ():
            key, _, value = pair.partition("=")
            pairs[key.strip()] = value.strip()
    assert set(pairs) == set(_PARSERS)
    readme, defaults = load_config(None, pairs), load_config(None)
    assert readme.model_config(5, 3) == defaults.model_config(5, 3)
    for stage in Stage:
        assert readme.train_config(stage) == defaults.train_config(stage)
    assert replace(readme, sections={}) == defaults
