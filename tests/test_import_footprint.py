"""A verify run loads no OpenSSL.

``hashlib`` imports ``_hashlib``, which maps OpenSSL's libcrypto into the
process (about 3.5 MB resident) although the package hashes one short
JSON document per instance.  ``metric`` takes ``sha256`` from the
interpreter's built-in module instead.  This gate reads module names in
a fresh interpreter, never wall time or memory.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kserver

SRC = str(Path(kserver.__file__).parents[1])

LEAN = [name for name in ("_sha256", "_sha2") if importlib.util.find_spec(name) is not None]

VERIFY = """
import sys
import kserver.cli
from kserver.harness import generate_instance, verify_anchored_properties
inst = generate_instance(6, 3, 8, 1)
report = verify_anchored_properties(inst, 2 * inst.k - 1)
assert report.to_json()["fingerprint"] == inst.fingerprint()
print(sorted(name for name in ("hashlib", "_hashlib") if name in sys.modules))
"""


def run_fresh(code):
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip()


@pytest.mark.skipif(not LEAN, reason="this interpreter has neither _sha256 nor _sha2")
def test_verify_leaves_hashlib_out():
    assert run_fresh(VERIFY) == "[]"
