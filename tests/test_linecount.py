"""``tools/linecount.py`` leaves blanks, comments and docstrings out of the code lines."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "linecount.py"
_spec = importlib.util.spec_from_file_location("linecount", _TOOL)
linecount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecount)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment leaves the line code


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return (
            text
        )
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # code: import, class, def, the two lines of the string, return ( text )
    assert linecount.count(SOURCE) == (18, 8)
