"""The README's library quick start runs as a doctest, so the documented
example cannot drift from what the package prints."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    # the block body only: its closing fence would read as expected output
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    test = doctest.DocTestParser().get_doctest(block, {}, "quick start", str(README), 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted > 0
    assert result.failed == 0
