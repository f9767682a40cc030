import re
from pathlib import Path

from kgt.config import _PARSERS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_configuration_block_names_every_key():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Configuration") :]
    block = section.split("```")[1]
    named = re.findall(r"(?:^|\s)([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)?)\s*=", block, flags=re.M)
    assert len(named) == len(set(named)), "a key is listed twice"
    assert set(named) == set(_PARSERS)
