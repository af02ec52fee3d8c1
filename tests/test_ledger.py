"""Every file scripts/reproduce_results.py writes, against the committed digests.

The script runs as `python -W error`, so any warning it raises fails the run.
Exit 0 means every command and every report check passed; the exact file set
means no hidden `.{name}.{pid}.{n}` temp file was left beside an `--out`
target; the digests mean a rerun writes the same bytes.

tests/data/results.sha256 is in sha256sum's format. A change that alters
output bytes on purpose re-records it in the same commit, from the repository
root:

    PYTHONPATH=src python scripts/reproduce_results.py --out-dir results
    (cd results && sha256sum *) > tests/data/results.sha256
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import photonclock

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "data" / "results.sha256"
SCRIPT = HERE.parent / "scripts" / "reproduce_results.py"


def test_reproduced_files_match_the_ledger(tmp_path):
    lines = LEDGER.read_text(encoding="ascii").splitlines()
    expected = {name: digest for digest, name in (line.split("  ", 1) for line in lines)}
    src = os.path.dirname(os.path.dirname(photonclock.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-W", "error", str(SCRIPT), "--out-dir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert sorted(written) == sorted(expected)
    changed = [name for name in sorted(expected) if written[name] != expected[name]]
    assert not changed, f"not as in {LEDGER.name}: {', '.join(changed)}; the new copies are in {tmp_path}"
