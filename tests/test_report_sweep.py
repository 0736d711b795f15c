"""The digest of tools/report_sweep.py, pinned: report bytes and exit codes stay as they are.

The sweep runs the CLI in this process on a fixed list of calls and hashes
each call's argv, exit code, stdout and stderr into one SHA-256 digest.  A
change that declares a report change updates DIGEST and says so in
CHANGES.md.  The JSON decoder's error texts can differ between Python
versions, so the digest holds on the minor version it was taken on, and the
test skips on any other.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGEST_PYTHON = (3, 11)
CALLS = "2396 calls (exit 0: 2240, exit 2: 156)"
DIGEST = "3b5d8520c32363b545529bb1f6fd6ef911fb890f9363512b4b76c96be1b565d9"


def test_report_sweep_digest(monkeypatch, capsys):
    here = sys.version_info[:2]
    if here != DIGEST_PYTHON:
        pytest.skip(
            "the report digest was taken on Python %d.%d; this is Python %d.%d" % (*DIGEST_PYTHON, *here)
        )
    # main changes into the checkout root and puts its src first on sys.path; both are restored
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("report_sweep", ROOT / "tools" / "report_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.main([]) == 0
    assert capsys.readouterr().out.splitlines() == [CALLS, DIGEST]
