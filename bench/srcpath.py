"""Put the checkout's ``src/`` first on ``sys.path``.

The benchmark always measures the package in the checkout it sits in,
never an installed copy: importing this module makes ``import signrank``
resolve to ``<checkout>/src/signrank`` and fails loudly when that
directory is missing.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = BENCH / "corpus"

if not (SRC / "signrank" / "__init__.py").is_file():
    raise ImportError(f"no signrank package under {SRC}; run from a checkout of the repository")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
