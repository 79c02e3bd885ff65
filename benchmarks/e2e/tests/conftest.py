"""Self-tests of the e2e benchmark: ``python -m pytest benchmarks/e2e -q``.

Outside tier-1's ``testpaths``; the benchmark's modules are scripts
beside ``run.py``, so they and the program are put on the path here.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for entry in (str(ROOT / "src"), str(E2E)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
