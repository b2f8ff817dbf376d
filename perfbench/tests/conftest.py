"""Put the checkout root (for ``perfbench``) and ``src`` (for ``repro``) on
the import path, so ``python3 -m pytest perfbench/tests`` runs from a plain
checkout."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
