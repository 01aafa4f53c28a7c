"""The README's Python examples run as written, and its config keys are the real ones.

Every ```python block of README.md runs in order, in one namespace, as a
reader pasting them into one session would; a stale call fails here.
"""

import contextlib
import io
import re
from dataclasses import fields
from pathlib import Path

from netdrift.experiment import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    assert blocks
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for index, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {index}", "exec"), namespace)


def test_readme_config_keys_are_the_config_fields():
    # The first sentence of the "Config keys:" paragraph names each key once, in backticks.
    sentence = re.search(r"^Config keys:(.*?)\.\s", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    assert sentence
    named = re.findall(r"`([^`]+)`", sentence.group(1))
    assert sorted(named) == sorted(f.name for f in fields(ExperimentConfig))
