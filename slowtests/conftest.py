"""Slow end-to-end checks, outside the default ``testpaths``:

    python3 -m pytest slowtests
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The library, and the test oracles kept under tests/ (``exhaustive``).
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
