"""Every grid spec the docs show parses as a ``GridSpec``.

A fenced ``json`` block with a ``factors`` key is a grid spec a reader
may copy into ``repro grid --spec``; a field ``GridSpec.from_payload``
rejects would fail there with ``unknown spec field(s)``.
"""

import json
import pathlib
import re

import pytest

from repro.experiments.grid import GridSpec

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md",
                                                ROOT / "EXPERIMENTS.md"]
FENCE = re.compile(r"^```json\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _documented_specs():
    specs = []
    for path in DOCS:
        text = path.read_text()
        for match in FENCE.finditer(text):
            payload = json.loads(match.group(1))
            if isinstance(payload, dict) and "factors" in payload:
                line = text.count("\n", 0, match.start()) + 1
                specs.append(pytest.param(
                    payload, id=f"{path.relative_to(ROOT)}:{line}"))
    return specs


SPECS = _documented_specs()


def test_the_docs_show_a_grid_spec():
    assert SPECS


@pytest.mark.parametrize("payload", SPECS)
def test_documented_spec_parses_and_expands(payload):
    spec = GridSpec.from_payload(payload)
    assert spec.expand()
