"""The heap policy ``import repro`` sets: freed pages stay for the next trial.

Each check runs in a fresh interpreter, since this session's heap has
long since been shaped by everything the suite ran.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def is_glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def run_fresh(code):
    """stdout of ``code`` run by a fresh interpreter on ``src``."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


BURSTS = """
import resource

import numpy as np

import repro


def burst():
    live = [np.ones(1 << 20) for _ in range(4)]  # 8 MiB each
    del live


burst()  # maps the heap the later bursts reuse
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    burst()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not is_glibc(), reason="the policy is glibc's mallopt")
def test_freed_arrays_are_not_faulted_in_again():
    # At glibc's dynamic thresholds each burst's 32 MiB is trimmed when
    # it is freed and faulted back in by the next: about 20,000 faults.
    assert int(run_fresh(BURSTS)) < 1000


def test_import_without_mallopt():
    code = """
import ctypes

opened = []


class NoMallopt:
    def __init__(self, name, *args, **kwargs):
        opened.append(name)


ctypes.CDLL = NoMallopt
import repro

print(repro.__version__, len(opened))
"""
    version, opened = run_fresh(code).split()
    assert version == "1.0.0"
    assert int(opened) == (1 if is_glibc() else 0)
