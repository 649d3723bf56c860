"""The code-line count of ``bench/loc.py`` on a small snippet."""

import importlib.util
import os

import pytest

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment

# a whole-line comment


def f(x):
    """Function docstring."""
    s = """a string
    over two lines"""
    return (x +
            1)


class C:
    """Class docstring,

    with a blank line inside."""

    async def g(self):
        """Method docstring."""
        return "not a docstring"
'''


@pytest.fixture(scope="module")
def loc():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "loc.py")
    spec = importlib.util.spec_from_file_location("loc", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_are_not_counted(loc):
    # import, def, the two lines of the string, the two of the return,
    # class, async def, and the return of a string that is no docstring
    assert loc.code_lines(SNIPPET) == 9
    assert loc.code_lines("") == 0


def test_main_prints_each_file_and_the_total(loc, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert loc.main([str(tmp_path)]) == 0
    counts = [int(line.split()[0]) for line in capsys.readouterr().out.splitlines()]
    assert counts == [9, 1, 10]
