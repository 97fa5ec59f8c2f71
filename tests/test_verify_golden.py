"""`leibcx verify --format json` against recorded reports.

The files under tests/data hold the JSON reports of `leibcx verify` with
its defaults, with `--inject-mutation d0-sign` and with
`--inject-mutation zeta-sign`, every `seconds` field removed (timings
differ from run to run; nothing else may). A change meant to keep
verify's output fixed must pass this test unchanged. A change that means
to alter the output regenerates the three files from the changed code
and records in CHANGES.md what changed in them and why.
"""

import json
from pathlib import Path

import pytest

from leibniz_complex.cli import main

DATA = Path(__file__).parent / "data"


def without_seconds(node):
    if isinstance(node, dict):
        return {k: without_seconds(v) for k, v in node.items() if k != "seconds"}
    if isinstance(node, list):
        return [without_seconds(v) for v in node]
    return node


@pytest.mark.parametrize("name, args, code", [
    ("default", [], 0),
    ("d0_sign", ["--inject-mutation", "d0-sign"], 1),
    ("zeta_sign", ["--inject-mutation", "zeta-sign"], 1),
])
def test_verify_report_matches_the_recorded_one(name, args, code, capsys):
    assert main(["verify", "--format", "json", *args]) == code
    report = without_seconds(json.loads(capsys.readouterr().out))
    assert json.dumps(report, indent=2) + "\n" == (DATA / f"verify_{name}.json").read_text()
