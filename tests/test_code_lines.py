import subprocess
import sys

from tests.conftest import REPO_ROOT

SCRIPT = str(REPO_ROOT / "scripts" / "code_lines.py")

# ten lines hold code: the import, X's two, f's signature and return (two
# each), class C, y and the string that is not a docstring
_MODULE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment

X = """not a
docstring"""


def f(a,
      b):
    """A function's docstring."""
    # a comment line in a body
    return (a +
            # a comment inside brackets
            b)


class C:
    """A class's docstring."""

    y = 1
    "a string that is not the first statement"
'''


def _run(*argv):
    return subprocess.run([sys.executable, SCRIPT, *map(str, argv)],
                          capture_output=True, text=True, timeout=60)


def test_counts_code_lines_only(tmp_path):
    (tmp_path / "b.py").write_text(_MODULE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    done = _run(tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["a.py        0", "b.py       10", "total      10"]


def test_no_modules_is_an_error(tmp_path):
    done = _run(tmp_path)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == f"code_lines: no .py files in {tmp_path}\n"
