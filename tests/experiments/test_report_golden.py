"""Byte-identical renderings of one fixed report payload.

``golden/report.json`` is a synthetic payload with every section a report
can carry: cell summaries (one from a store that predates the optional
columns), histograms with and without samples, contribution rows whose
stats column reads ``-`` / ``identical`` / ``DIVERGED`` / ``n/a``, sweep
rows with and without a bias, claims that pass, fail and skip, and
quarantined cells.  ``report.txt`` and ``report.md`` are its text and
markdown renderings; the JSON rendering is the file itself.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.experiments.report import render_report
from repro.obs.schema import validate_report

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fmt, name", [
    ("json", "report.json"),
    ("text", "report.txt"),
    ("markdown", "report.md"),
])
def test_rendering_matches_golden(fmt, name):
    payload = json.loads((GOLDEN / "report.json").read_text())
    assert render_report(payload, fmt) == (GOLDEN / name).read_text()


def test_the_golden_payload_validates():
    assert validate_report(json.loads((GOLDEN / "report.json").read_text())) == []


def test_every_markdown_row_has_as_many_cells_as_its_header():
    """A ``|`` inside a cell (every sweep cell is ``<scenario>|n=<n>``) is
    escaped, so no row of a markdown table has more columns than its header."""
    tables, table = [], []
    for line in (GOLDEN / "report.md").read_text().splitlines() + [""]:
        if line.startswith("|"):
            table.append(re.split(r"(?<!\\)\|", line)[1:-1])
        elif table:
            tables.append(table)
            table = []
    assert len(tables) >= 5
    for header, *rows in tables:
        for row in rows:
            assert len(row) == len(header), row
