"""Smoke tests of `tools/ab_interleave.py`: the repository compared with
itself must come out bitwise equal, and a bad pass count is a usage
error."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab_interleave.py")


def run_tool(*args):
    return subprocess.run([sys.executable, TOOL, ROOT, ROOT, *args],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,lines", [
    ("graphs", ["predict-small: 128/128 cells with all nine graph arrays or "
                "the error bitwise equal",
                "predict-large: 40/40 cells with all nine graph arrays or "
                "the error bitwise equal",
                "train: 36/36 cells with all nine graph arrays or the error "
                "bitwise equal"]),
    ("train", ["losses and gradient hashes bitwise equal in every step: "
               "True"]),
], ids=["graphs", "train"])
def test_a_tree_is_bitwise_equal_to_itself(workload, lines):
    done = run_tool("--workload", workload, "--passes", "2")
    assert done.returncode == 0, done.stderr
    for line in lines:
        assert line in done.stdout
    assert done.stdout.count("median x") == {"graphs": 3, "train": 2}[workload]


def test_one_pass_is_a_usage_error():
    done = run_tool("--workload", "graphs", "--passes", "1")
    assert done.returncode == 2
    assert "--passes must be at least 2" in done.stderr
