import os
import sys
from pathlib import Path

import covertime

# make the shared oracle helpers importable as `import oracles`
sys.path.insert(0, str(Path(__file__).parent))

# tests that run `python -m covertime` in a subprocess get the package this
# session imported, whether or not PYTHONPATH was set
_SRC = str(Path(covertime.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
