"""Put the checkout's ``src`` on the path, as the benchmark's workers do.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
