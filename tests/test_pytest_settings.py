"""The repository's pytest settings report a failing hypothesis property."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    # On failure hypothesis imports a third-party module that warns on import;
    # unless that warning is filtered, the `error::DeprecationWarning` setting
    # ends pytest with an internal error (exit 3) before the example is printed.
    (tmp_path / "test_red.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_red(n):\n"
        "    assert n < 0\n",
        encoding="utf-8",
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_red.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output, output
