import os
import sys
from pathlib import Path

import pytest

import covertime
from covertime import experiments

# make the shared oracle helpers importable as `import oracles`
sys.path.insert(0, str(Path(__file__).parent))

# tests that run `python -m covertime` in a subprocess get the package this
# session imported, whether or not PYTHONPATH was set
_SRC = str(Path(covertime.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(autouse=True)
def _at_most_two_suite_processes(monkeypatch):
    # scaling suites fork one process per usable CPU; on a many-core machine
    # the in-process tests keep to two (tests that need the real lookup call
    # monkeypatch.undo() first)
    cpus = experiments._usable_cpus()
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: min(cpus, 2))
