"""The golden CLI transcript (see tests/golden.py): every command's exit
code, stdout, stderr and written files are the ones checked in."""

import pytest

import golden


@pytest.mark.parametrize("which", sorted(golden.TRANSCRIPTS))
def test_golden_transcript(which):
    want = (golden.GOLDEN / f"{which}.txt").read_text()
    assert golden.transcript(which) == want
