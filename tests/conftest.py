import os
import sys
from pathlib import Path

import pytest

import covertime

# make the shared oracle helpers importable as `import oracles`
sys.path.insert(0, str(Path(__file__).parent))

# tests that run `python -m covertime` in a subprocess get the package this
# session imported, whether or not PYTHONPATH was set
_SRC = str(Path(covertime.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(autouse=True)
def _at_most_two_cpus():
    # maps fork one process per CPU of the affinity mask; on a many-core
    # machine the tests keep to two. The live mask is capped, not a count
    # frozen: a map inside a share sees the one CPU its share is pinned to
    # and runs in-process, as it does outside the tests
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(mask)[:2])
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)
