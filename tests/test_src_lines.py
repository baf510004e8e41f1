"""scripts/src_lines.py: the line split it reports for every change's src delta."""

import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

# 21 lines: 6 code, 6 docstring, 2 comment and 7 blank
MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves a code line

# a comment line


def f(x):
    """One-line docstring."""
    # a comment inside a body
    return x


class C:
    """Class docstring

    with a blank line inside."""

    y = """a string that is no docstring
    is code"""
'''


def test_split_of_a_known_module():
    assert src_lines.split(MODULE) == {"lines": 21, "code": 6, "docstring": 6,
                                       "comment": 2, "blank": 7}


def test_total_over_the_package_is_its_wc_count(capsys):
    package = ROOT / "src" / "haarforge"
    assert src_lines.main(["src_lines.py", str(package)]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    files = sorted(str(p) for p in package.glob("*.py"))
    wc = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True)
    assert total[0] == "total"
    assert int(total[1].replace(",", "")) == int(wc.stdout.splitlines()[-1].split()[0])
    counts = [int(x.replace(",", "")) for x in total[1:]]
    assert counts[0] == sum(counts[1:])
