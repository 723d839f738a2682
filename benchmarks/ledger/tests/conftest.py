"""Make the ledger's modules and this checkout's ``repro`` importable."""

import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(LEDGER_DIR))
sys.path.insert(0, str(LEDGER_DIR.parents[1] / "src"))
