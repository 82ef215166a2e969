"""What a fresh interpreter loads to import the command line.

The records are NamedTuples and slotted classes, so the import pulls in no
``dataclasses`` (nor the ``inspect``, ``ast``, ``dis`` and ``tokenize``
behind it), and ``hashlib``, which loads libcrypto, is imported only when
``repsem.rep_digest`` renders a digest.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import consrep.cli
print(sorted(m for m in ("dataclasses", "inspect", "hashlib") if m in sys.modules))
from consrep import consensus_model as cm
from consrep import lts, repsem
repsem.rep_digest(lts.initial_reps(cm.build_system(cm.make_instance(1, [4])))[0])
print("hashlib" in sys.modules)
"""


def test_importing_the_cli_loads_neither_dataclasses_nor_hashlib():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "True"]
