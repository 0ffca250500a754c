"""The same-bytes contract: pinned command lines reproduce their output.

``same_bytes.json`` maps command lines to the MD5 of what they produce.
A key is one or more ``repro-p2p`` command lines joined by `` && ``,
run in order, each in its own interpreter, with one private trace cache
per key (``REPRO_P2P_CACHE``).  When the last command names an output
file as ``F``, the digest is of that file; otherwise it is of the last
command's standard output.  A change that moves any of these bytes on
purpose updates the digest and says why in CHANGES.md.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads(Path(__file__).with_name("same_bytes.json").read_text())


def run_pinned(key: str, workdir: Path) -> str:
    """MD5 of what the command chain ``key`` produces, run in ``workdir``."""
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "REPRO_P2P_CACHE": str(workdir / "cache"),
    }
    out_file = workdir / "out"
    for command in key.split(" && "):
        args = shlex.split(command)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli",
             *(str(out_file) if arg == "F" else arg for arg in args)],
            capture_output=True, env=env, cwd=str(workdir), timeout=300,
        )
        assert proc.returncode == 0, (command, proc.stderr.decode()[-2000:])
    produced = out_file.read_bytes() if "F" in args else proc.stdout
    return hashlib.md5(produced).hexdigest()


def test_pinned_commands_reproduce_their_bytes(tmp_path):
    workdirs = [tmp_path / f"run{i}" for i in range(len(PINS))]
    for workdir in workdirs:
        workdir.mkdir()
    # Two chains at a time keeps the check to a few seconds without
    # oversubscribing a two-CPU host.
    with ThreadPoolExecutor(max_workers=2) as pool:
        digests = dict(zip(PINS, pool.map(run_pinned, PINS, workdirs)))
    assert digests == PINS
