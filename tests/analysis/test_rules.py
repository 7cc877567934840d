"""The rule corpus: every fixture's ``# expect:`` comments must match
the linter's findings *exactly* — missing findings and false positives
both fail.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.driver import check_source

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture stem -> module name the source is checked under.  The
#: determinism fixtures must live inside a deterministic package for
#: RPR201/RPR202 to apply; everything else is package-agnostic.
FIXTURE_MODULES = {
    "units_bad": "fixture.units",
    "units_good": "fixture.units",
    "determinism_bad": "repro.streaming.fixture",
    "determinism_good": "repro.streaming.fixture",
    "asyncio_bad": "repro.serving.fixture",
    "asyncio_good": "repro.serving.fixture",
    "kernel_bad": "fixture.kernels",
    "kernel_good": "fixture.kernels",
}

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<rules>RPR\d+(?:\s*,\s*RPR\d+)*)")


def expected_findings(source: str) -> set[tuple[int, str]]:
    """(line, rule) pairs declared by ``# expect:`` comments."""
    expected: set[tuple[int, str]] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            for rule in match.group("rules").split(","):
                expected.add((lineno, rule.strip()))
    return expected


@pytest.mark.parametrize("stem", sorted(FIXTURE_MODULES))
def test_fixture_matches_expectations(stem):
    source = (FIXTURES / f"{stem}.py").read_text(encoding="utf-8")
    findings = check_source(source, path=f"{stem}.py", module=FIXTURE_MODULES[stem])
    actual = {(f.line, f.rule) for f in findings}
    assert actual == expected_findings(source)


def test_every_rule_family_has_good_and_bad_coverage():
    """Each of the four families appears in a bad fixture, and each bad
    fixture has a good twin — the acceptance shape of the corpus."""
    by_family = {"RPR1": 0, "RPR2": 0, "RPR3": 0, "RPR4": 0}
    for stem, module in FIXTURE_MODULES.items():
        if not stem.endswith("_bad"):
            continue
        assert (FIXTURES / f"{stem[:-4]}_good.py").is_file()
        source = (FIXTURES / f"{stem}.py").read_text(encoding="utf-8")
        for _line, rule in expected_findings(source):
            by_family[rule[:4]] += 1
    assert all(count > 0 for count in by_family.values()), by_family


def test_determinism_rules_scope_to_deterministic_packages():
    """The same source outside repro.{streaming,codecs,encoding,
    perception} keeps only the package-agnostic RPR203."""
    source = (FIXTURES / "determinism_bad.py").read_text(encoding="utf-8")
    findings = check_source(source, module="repro.scenes.fixture")
    assert {f.rule for f in findings} == {"RPR203"}


def test_kernel_rule_needs_opt_in():
    """Without the pragma (stripped here) and outside the configured
    kernel modules, per-element loops are not flagged."""
    source = (FIXTURES / "kernel_bad.py").read_text(encoding="utf-8")
    stripped = source.replace("# repro: kernel-module", "")
    assert check_source(stripped, module="fixture.kernels") == []
    as_packing = check_source(stripped, module="repro.encoding.packing")
    assert {f.rule for f in as_packing} == {"RPR401"}


def test_unit_vocabulary():
    from repro.analysis.unitnames import unit_of

    assert unit_of("start_s") == "s"
    assert unit_of("jitter_ms") == "ms"
    assert unit_of("payload_bits") == "bits"
    assert unit_of("bandwidth_mbps") == "mbps"
    assert unit_of("encode_throughput_mpixels_s") == "mpixels_s"
    assert unit_of("axis") is None
    assert unit_of("s") is None  # a bare suffix carries no unit claim
    assert unit_of("bits") is None
    assert unit_of("reads") is None
