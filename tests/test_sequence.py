import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from stimkb.errors import ValidationError
from stimkb.sequence import (
    OFFSET,
    ONSET,
    SequenceItem,
    build_sequence,
    emit_schedule,
    make_sequence,
    schedule_to_tsv,
    sequence_to_json,
)


def _ranked(keys):
    return [(k, 1.0) for k in keys]


def test_build_three_item_sequence():
    seq = build_sequence(_ranked(["a", "b", "c"]), count=3, duration_ms=2000,
                         isi_ms=500)
    assert [i.start_ms for i in seq.items] == [0, 2500, 5000]
    assert seq.total_ms == 7000


def test_single_item():
    seq = build_sequence(_ranked(["a"]), count=1, duration_ms=1500)
    assert seq.items[0].start_ms == 0
    assert seq.total_ms == 1500


def test_count_exceeds_results():
    with pytest.raises(ValidationError):
        build_sequence(_ranked(["a", "b", "c"]), count=5, duration_ms=1000)


def test_build_rejects_bad_params():
    r = _ranked(["a"])
    with pytest.raises(ValidationError):
        build_sequence(r, count=0, duration_ms=1000)
    with pytest.raises(ValidationError):
        build_sequence(r, count=1, duration_ms=0)
    with pytest.raises(ValidationError):
        build_sequence(r, count=1, duration_ms=1000, isi_ms=-1)


def test_cross_track_overlap_allowed():
    visual = build_sequence(_ranked(["a", "b"]), count=2, duration_ms=2000,
                            isi_ms=500, track="visual")
    auditory = build_sequence(_ranked(["x", "y"]), count=2, duration_ms=2000,
                              isi_ms=500, track="auditory")
    both = make_sequence(visual.items + auditory.items)
    assert len(both.items) == 4
    assert both.total_ms == 4500


def test_same_track_overlap_rejected():
    items = [SequenceItem("a", "visual", 0, 2000),
             SequenceItem("b", "visual", 1000, 2000)]
    with pytest.raises(ValidationError, match="overlap"):
        make_sequence(items)
    # The overlap's track sorts first, yet every duration is checked first.
    items = [SequenceItem("a", "auditory", 0, 1000),
             SequenceItem("b", "auditory", 500, 1000),
             SequenceItem("c", "visual", 0, 0)]
    with pytest.raises(ValidationError) as e:
        make_sequence(items)
    assert str(e.value) == "item c has non-positive duration 0"


def test_schedule_one_item():
    seq = make_sequence([SequenceItem("a", "visual", 0, 2000)])
    events = emit_schedule(seq)
    assert [(e.timestamp_ms, e.kind) for e in events] == [(0, ONSET), (2000, OFFSET)]


def test_schedule_three_items():
    seq = build_sequence(_ranked(["a", "b", "c"]), count=3, duration_ms=2000,
                         isi_ms=500)
    events = emit_schedule(seq)
    assert [e.timestamp_ms for e in events] == [0, 2000, 2500, 4500, 5000, 7000]
    assert len(events) == 6


def test_schedule_empty():
    assert emit_schedule(make_sequence([])) == []


def test_schedule_tie_order_offset_first():
    seq = make_sequence(
        [SequenceItem("a", "visual", 0, 1000), SequenceItem("b", "visual", 1000, 500)]
    )
    events = emit_schedule(seq)
    assert [(e.timestamp_ms, e.kind) for e in events] == [
        (0, ONSET), (1000, OFFSET), (1000, ONSET), (1500, OFFSET)
    ]


@settings(max_examples=100, deadline=None)
@given(count=st.integers(1, 8), duration=st.integers(1, 3000),
       isi=st.integers(0, 1000), track=st.sampled_from(["visual", "auditory"]))
@example(count=3, duration=1000, isi=0, track="visual")
def test_built_sequence_and_its_schedule(count, duration, isi, track):
    seq = build_sequence(_ranked([f"s{i}" for i in range(count)]), count=count,
                         duration_ms=duration, isi_ms=isi, track=track)
    items = seq.items
    assert [i.track for i in items] == [track] * count
    for prev, cur in zip(items, items[1:]):
        assert cur.start_ms >= prev.start_ms + prev.duration_ms  # no overlap
    events = emit_schedule(seq)
    # Two events per item: its Onset at its start, its Offset at its end.
    got = sorted((e.stimulus, e.kind, e.timestamp_ms, e.track) for e in events)
    assert got == sorted(
        [(i.stimulus, ONSET, i.start_ms, track) for i in items]
        + [(i.stimulus, OFFSET, i.start_ms + i.duration_ms, track) for i in items]
    )
    # Chronological, and at a tie (isi 0) the Offset comes before the Onset.
    order = [(e.timestamp_ms, e.kind != OFFSET) for e in events]
    assert order == sorted(order)
    if isi == 0 and count > 1:
        assert [e.kind for e in events[1:3]] == [OFFSET, ONSET]


def test_total_ms_permutation_invariant():
    items = [
        SequenceItem("a", "v", 0, 100),
        SequenceItem("b", "v", 500, 300),
        SequenceItem("c", "w", 200, 900),
    ]
    base = make_sequence(items).total_ms
    rng = random.Random(0)
    for _ in range(5):
        rng.shuffle(items)
        assert make_sequence(items).total_ms == base


def test_json_and_tsv_emission():
    seq = build_sequence(_ranked(["IAPS/1"]), count=1, duration_ms=2000)
    doc = json.loads(sequence_to_json(seq))
    assert doc["totalMs"] == 2000
    assert doc["items"][0] == {
        "stimulus": "IAPS/1", "track": "visual", "startMs": 0, "durationMs": 2000
    }
    tsv = schedule_to_tsv(emit_schedule(seq))
    assert tsv == "0\tOnset\tvisual\tIAPS/1\n2000\tOffset\tvisual\tIAPS/1\n"
