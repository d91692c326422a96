import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_HYPOTHESIS_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_under_the_project_filters(tmp_path):
    # with every warning an error, hypothesis's failure report imported
    # libcst, whose DeprecationWarning ended the whole run in INTERNALERROR;
    # the scoped filter lets pytest report the failure and run the rest
    (tmp_path / "test_draw.py").write_text(FAILING_HYPOTHESIS_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_draw.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out
