"""The evaluator's outputs on the fixed differential case set are pinned.

``tools/differential.py`` prints one line per case and, last, the count and
SHA-256 of those lines.  A change that must not alter any output keeps the
pin; a change that alters output on purpose updates it and says why.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = "1400 lines sha256 74268088c8409526cc54f899d3824ac81df0577157fde3f8f2be91c0b2aa2404"


def test_differential_output_is_unchanged():
    # About 4 s on 2 vCPUs with Python 3.11.
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "differential.py"), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=300,
    )
    assert run.stdout.splitlines()[-1] == PINNED
