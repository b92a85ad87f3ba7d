import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: sha256 of each demo's stdout: a change to the library must leave these bytes as they are.
STDOUT_SHA256 = {
    "01_single_state_tour.py": "8892c252afb57197aab53573aa1d8934279513ac10aef3c6e26b556c2c65c5f0",
    "02_worst_case_oracle.py": "b6ad9da127387678780cfe56a87ef40314481b84c3903cf53dc059863afb5747",
    "03_photon_scaling.py": "32e832081417a224d4134e323ffa191eb1e6d46352b051a36e399800ed703e10",
    "04_entanglement_boundaries.py": "2431cc8d58c87a2421b263dd8c3b27a6f133cb8afdebe7532fef1f409291c838",
}


def test_demos_found():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo, tmp_path):
    # a fresh interpreter on the source tree, in an empty directory
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            env=env, cwd=tmp_path, timeout=60)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
    assert not any(tmp_path.iterdir())
