"""Byte-exact regression check of CLI and script outputs against tests/golden/.

The cases and the generator live in ``tests/golden/make_golden.py``.  A
refactor must leave every file identical; an intended change of a printed
number regenerates the files and records the moved digits in CHANGES.md.
The in-process Lamb-shift reports are compared to the bit, on a memo miss,
on a memo hit and on a hit at the other qubit frequency.
"""

import difflib
import json
from pathlib import Path

import pytest

from dispersive_cqed import lightmatter

from conftest import golden_generator

GOLDEN_DIR = Path(__file__).parent / "golden"

make_golden = golden_generator()

EXIT_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())
REPORTS = json.loads(make_golden.REPORT_FILE.read_text())


def test_every_case_has_golden_files():
    assert sorted(EXIT_CODES) == sorted(make_golden.CASES)
    for case_id in make_golden.CASES:
        assert any((GOLDEN_DIR / case_id).iterdir()), case_id


@pytest.mark.parametrize("case_id", sorted(make_golden.CASES))
def test_output_matches_golden(case_id, tmp_path):
    assert make_golden.run_case(case_id, tmp_path) == EXIT_CODES[case_id]
    expected_dir = GOLDEN_DIR / case_id
    expected = sorted(p.name for p in expected_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        want = (expected_dir / name).read_text()
        got = (tmp_path / name).read_text()
        if got != want:
            diff = difflib.unified_diff(
                want.splitlines(), got.splitlines(), "golden", "produced", lineterm="", n=0
            )
            pytest.fail(f"{case_id}/{name} differs:\n" + "\n".join(list(diff)[:20]))
        assert (tmp_path / name).read_bytes() == (expected_dir / name).read_bytes()


def test_every_report_case_has_a_golden_record():
    assert sorted(REPORTS) == sorted(
        make_golden.report_key(case_id, omega_q)
        for case_id in make_golden.REPORT_CASES
        for omega_q in make_golden.REPORT_OMEGAS_GHZ
    )


@pytest.mark.parametrize("omega_q", make_golden.REPORT_OMEGAS_GHZ)
@pytest.mark.parametrize("case_id", sorted(make_golden.REPORT_CASES))
def test_report_matches_golden_to_the_bit(case_id, omega_q):
    memo = lightmatter._memoised_spectrum
    memo.cache_clear()
    want = REPORTS[make_golden.report_key(case_id, omega_q)]
    assert make_golden.report_record(case_id, omega_q) == want  # memo miss
    assert memo.cache_info().currsize == 1
    assert make_golden.report_record(case_id, omega_q) == want  # memo hit
    other = make_golden.other_omega(omega_q)  # a hit that reuses the position constants
    assert make_golden.report_record(case_id, other) == REPORTS[
        make_golden.report_key(case_id, other)]
