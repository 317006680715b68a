"""Slow end-to-end checks, outside the default ``testpaths``:

    python3 -m pytest slowtests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
