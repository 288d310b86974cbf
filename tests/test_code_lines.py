"""tools/code_lines.py, the counter of the code-line figures in CHANGES.md."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""A module docstring

over three lines."""

# a comment


def f():
    """A function docstring."""
    return 1


X = f()
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert code_lines.code_lines(path) == 3


def _total(capsys, paths):
    code_lines.main(paths)
    return capsys.readouterr().out.splitlines()[-2]


def test_directory_stands_for_its_python_files(capsys):
    src = ROOT / "src" / "kostka"
    files = sorted(map(str, src.glob("*.py")))
    assert len(files) > 1
    assert _total(capsys, [str(src)]) == _total(capsys, files)


def test_a_closed_pipe_ends_the_script_quietly():
    # the read end is closed before the script starts, so its first write
    # meets a broken pipe whatever the timing, as when `head` stops reading
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(ROOT / "src" / "kostka")],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1
