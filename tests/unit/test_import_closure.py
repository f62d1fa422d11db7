"""Cold start: the modules the benchmark's entry points load.

Every ``repro`` process compiles what it imports, so what the link
drivers, the uplink decoder, the serve gateway, the fault-spec parser
and the obs switches pull in at import time is start-up cost.  These
checks run in a fresh interpreter, since this session has long since
imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

ENTRY_MODULES = (
    "repro.sim.link",
    "repro.core.uplink_decoder",
    "repro.serve.gateway",
    "repro.faults.spec",
    "repro.obs.state",
)

#: Subtrees no entry module needs: other experiments and higher layers.
ABSENT_SUBTREES = (
    "repro.mac",
    "repro.net",
    "repro.scenarios",
    "repro.traces",
    "repro.obs.soak",
)

ABSENT_MODULES = (
    "repro.analysis.sweep",
    "repro.analysis.throughput",
    "repro.analysis.report",
    "repro.core.inventory",
    "repro.core.downlink_encoder",
    "repro.core.downlink_decoder",
    "repro.core.correlation_decoder",
    "repro.core.ack",
    "repro.core.fragmentation",
    "repro.tag.antenna",
    "repro.tag.harvester",
    "repro.tag.mcu",
    "repro.tag.tag",
    "repro.tag.receiver_circuit",
    "repro.phy.envelope",
    "repro.phy.ofdm",
    "repro.obs.manifest",
    "repro.obs.perf.slo",
    "repro.obs.fleet.report",
    "repro.obs.forensics.report",
    # Process-pool machinery loads where a pool is made.
    "concurrent.futures",
    "multiprocessing",
)


def modules_loaded_by(*names):
    """``sys.modules`` of a fresh interpreter after importing ``names``."""
    code = "".join(f"import {name}\n" for name in names) + (
        "import json, sys\nprint(json.dumps(sorted(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def in_subtree(module, root):
    return module == root or module.startswith(root + ".")


@pytest.fixture(scope="module")
def entry_closure():
    return modules_loaded_by(*ENTRY_MODULES)


def test_entry_modules_load(entry_closure):
    assert set(ENTRY_MODULES) <= entry_closure


@pytest.mark.parametrize("root", ABSENT_SUBTREES)
def test_entry_modules_skip_subtree(entry_closure, root):
    assert not [m for m in entry_closure if in_subtree(m, root)]


@pytest.mark.parametrize("module", ABSENT_MODULES)
def test_entry_modules_skip_module(entry_closure, module):
    assert module not in entry_closure


def test_cli_loads_no_experiment_layer():
    loaded = modules_loaded_by("repro.cli")
    for root in ("repro.sim", "repro.serve", "repro.mac"):
        assert not [m for m in loaded if in_subtree(m, root)], root
