"""The benchmark's modules are plain scripts in ``perfbench/``; import them
the way ``perfbench/run.py`` does."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
