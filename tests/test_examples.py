"""Every example script runs end to end (at reduced scale)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

CASES = [
    ("quickstart.py", ["--scale", "7", "--degree", "6"]),
    ("social_network_analysis.py", ["--scale-offset", "-6", "--sources", "16"]),
    ("weighted_transport_network.py", ["--side", "7"]),
    ("distributed_simulation.py", ["--p", "4", "--n", "80", "--batch", "20"]),
    ("community_detection.py", ["--size", "10"]),
]


@pytest.mark.parametrize("script,args", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, args):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"
