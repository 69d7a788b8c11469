"""The README's "Library use" example runs as printed."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_use_example_runs(capsys):
    text = open(README, encoding="utf-8").read()
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    distance = float(capsys.readouterr().out)
    assert 0.0 <= distance < 1.0
