"""The package's public surface is the API the README documents."""

import re
from pathlib import Path

import logdisc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library") :]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_all_is_the_documented_api():
    assert sorted(logdisc.__all__) == [
        "Certificate",
        "classify",
        "disc_exact",
        "disc_mod",
        "p_n_exact",
        "p_n_mod",
        "verify_certificate",
    ]
    for name in logdisc.__all__:
        assert getattr(logdisc, name).__module__.startswith("logdisc.")
