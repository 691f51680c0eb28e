"""Make this checkout's `src` importable when no other copy of noveval is on the path.

The checkout's `src` goes last, so a `PYTHONPATH` naming another copy wins.
"""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("noveval") is None:
    sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))
