"""README's "Library example" runs as printed.

Each line of the example's code block runs in one namespace, in order.  A
line with a trailing `# comment` is an expression whose str() must equal
the comment; the other lines (the import) are executed as they stand.  A
public name that is removed or renamed then fails here instead of leaving a
stale example behind.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def example_lines() -> list[str]:
    text = README.read_text()
    found = re.search(r"^## Library example\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert found, "README has no python block under '## Library example'"
    return [line for line in found.group(1).splitlines() if line.strip()]


def test_library_example_prints_its_comments():
    namespace: dict = {}
    checked = 0
    for line in example_lines():
        code, _, expected = line.partition("#")
        if not expected:
            exec(code, namespace)
            continue
        assert str(eval(code, namespace)) == expected.strip(), line
        checked += 1
    assert checked, "no line of the example has a # comment to check"
