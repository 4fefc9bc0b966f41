"""Every file of the ledger pipeline (tests/ledger.py) keeps its bytes.

A change that moves bytes on purpose rewrites tests/golden/ledger.json with
``PYTHONPATH=src python tests/ledger.py`` and says in CHANGES.md why.
"""

import json

import pytest

import ledger


def test_pipeline_bytes_match_the_ledger(tmp_path):
    golden = json.loads(ledger.LEDGER.read_text())
    if golden["build"] != ledger.build():
        pytest.fail(f"the ledger was taken on {golden['build']}, this is "
                    f"{ledger.build()}: rewrite it with tests/ledger.py on this build")
    files = ledger.run_pipeline(tmp_path)
    assert sorted(files) == sorted(golden["files"])
    moved = sorted(name for name, digest in files.items() if golden["files"][name] != digest)
    assert moved == [], f"files whose bytes moved: {moved}"
