"""Report fixture corpus: payload bytes recorded from earlier writers.

``fixtures/reports`` holds one small payload per report tag, written by
the per-type converters that preceded the dataclass-field serializer
(``fixtures/reports/record.py`` shows how each was built).  The bytes
are the oracle: every version-2 payload must load and re-serialize byte
for byte, and every version-1 copy must load equal to its version-2
twin.
"""

from pathlib import Path

import pytest

from repro.streaming.reports import _REPORT_TYPES, report_from_json

FIXTURES = Path(__file__).parent / "fixtures" / "reports"
V2_TAGS = sorted(p.name.removesuffix(".v2.json") for p in FIXTURES.glob("*.v2.json"))
V1_TAGS = sorted(p.name.removesuffix(".v1.json") for p in FIXTURES.glob("*.v1.json"))


def test_corpus_covers_every_tag():
    # The tag map is complete on its own: nothing else is imported here.
    assert V2_TAGS == sorted(_REPORT_TYPES)
    # Version 2 introduced the cohort report; every older tag has a v1 copy.
    assert V1_TAGS == [tag for tag in V2_TAGS if tag != "cohort-fleet"]


@pytest.mark.parametrize("tag", V2_TAGS)
def test_v2_payload_reserializes_byte_identically(tag):
    text = (FIXTURES / f"{tag}.v2.json").read_text()
    assert report_from_json(text).to_json() + "\n" == text


@pytest.mark.parametrize("tag", V1_TAGS)
def test_v1_payload_loads_equal_to_its_v2_twin(tag):
    v1 = report_from_json((FIXTURES / f"{tag}.v1.json").read_text())
    v2 = report_from_json((FIXTURES / f"{tag}.v2.json").read_text())
    assert type(v1) is type(v2)
    assert v1 == v2
