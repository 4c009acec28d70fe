"""The README's library example runs against the installed package, and
its catalog sentence names the package's catalog."""

import re
from pathlib import Path

from textbook import catalog

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"```python\n(.*?)```", text, re.S))
    assert blocks, "README has no python example"
    for block in blocks:
        # Pad with the lines above the block so tracebacks cite README lines.
        code = "\n" * text.count("\n", 0, block.start(1)) + block[1]
        exec(compile(code, str(README), "exec"), {})


def test_readme_names_every_catalog_entry():
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"Series catalog:(.*?)\.\s", text, re.S)
    assert sentence, "README has no 'Series catalog:' sentence"
    named = re.findall(r"`([^`]+)`", sentence[1])
    assert sorted(named) == sorted(f.name for f in catalog())
