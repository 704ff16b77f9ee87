"""``tools/same_output.py`` sees no difference between identical trees,
reports a changed printed string for exactly the commands that print it, and
runs each of argparse's own error paths."""

import importlib.util
import shutil
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_output.py"
_spec = importlib.util.spec_from_file_location("same_output", _TOOL)
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)


def _copies(tmp_path):
    src = same_output.ROOT / "src"
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    return [shutil.copytree(src, tmp_path / side / "src", ignore=ignore) for side in ("ref", "new")]


def test_identical_trees_differ_nowhere(tmp_path):
    ref, new = _copies(tmp_path)
    assert same_output.compare(ref, new, same_output.command_list()) == []


def test_the_list_takes_each_argparse_error_path():
    argvs = same_output.command_list()
    assert all(argv in argvs for argv in same_output.ARGPARSE_ERRORS)
    results = same_output.run(same_output.ROOT / "src", same_output.ARGPARSE_ERRORS)
    for status, out, err in results:
        assert (status, out) == (2, "")
        assert err.startswith("usage: galilei") and "error: " in err
    assert len({err for _, _, err in results}) == len(results)


def test_a_changed_string_is_reported_for_exactly_the_commands_that_print_it(tmp_path):
    ref, new = _copies(tmp_path)
    cli = new / "galilei" / "cli.py"
    text = cli.read_text()
    assert text.count('"first negative coefficient: none"') == 1
    cli.write_text(text.replace('"first negative coefficient: none"', '"first negative coefficient: absent"'))
    argvs = [argv for argv in same_output.command_list() if argv[:2] == ["genfun", "freeness"]]
    printing = [argv for argv, (_, out, _) in zip(argvs, same_output.run(ref, argvs))
                if "first negative coefficient: none" in out]
    assert 0 < len(printing) < len(argvs)
    differing = same_output.compare(ref, new, argvs)
    assert [argv for argv, _ in differing] == printing
    for _, diff in differing:
        assert "-first_negative: first negative coefficient: none" in diff
        assert "+first_negative: first negative coefficient: absent" in diff
