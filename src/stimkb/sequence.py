"""Stimulus presentation sequences and synchronization schedules.

A sequence is a list of timed items on named tracks (e.g. visual,
auditory); items on one track may not overlap, items on different tracks
may.  A schedule is the flat chronological stream of onset/offset events.
"""

import json
from collections import namedtuple

from .errors import ValidationError

ONSET = "Onset"
OFFSET = "Offset"


class SequenceItem(namedtuple("SequenceItem",
                              "stimulus track start_ms duration_ms")):
    __slots__ = ()


class StimulusSequence(namedtuple("StimulusSequence", "items total_ms")):
    __slots__ = ()


class SyncEvent(namedtuple("SyncEvent", "timestamp_ms kind stimulus track")):
    __slots__ = ()  # kind: Onset | Offset


def _validate_items(items):
    """Check items sorted by (track, start): every duration and start
    first, then each pair of neighbours on one track for overlap."""
    for item in items:
        if item.duration_ms <= 0:
            raise ValidationError(
                f"item {item.stimulus} has non-positive duration {item.duration_ms}"
            )
        if item.start_ms < 0:
            raise ValidationError(
                f"item {item.stimulus} has negative start {item.start_ms}"
            )
    for prev, cur in zip(items, items[1:]):
        if (cur.track == prev.track
                and cur.start_ms < prev.start_ms + prev.duration_ms):
            raise ValidationError(
                f"track {cur.track!r}: items {prev.stimulus} and "
                f"{cur.stimulus} overlap"
            )


def make_sequence(items):
    """Validate and assemble items into a StimulusSequence."""
    items = tuple(
        sorted(items, key=lambda i: (i.track, i.start_ms))
    )
    _validate_items(items)
    total = max((i.start_ms + i.duration_ms for i in items), default=0)
    return StimulusSequence(items=items, total_ms=total)


def build_sequence(entries, count, duration_ms, isi_ms=0, track="visual"):
    """Take the top `count` ranked `(key, score)` entries; item k starts at
    k * (duration + isi), all on one track."""
    if count <= 0:
        raise ValidationError("count must be positive")
    if duration_ms <= 0:
        raise ValidationError("duration must be positive")
    if isi_ms < 0:
        raise ValidationError("inter-stimulus interval must be non-negative")
    if count > len(entries):
        raise ValidationError(
            f"requested {count} items but only {len(entries)} results available"
        )
    items = [
        SequenceItem(
            stimulus=stimulus,
            track=track,
            start_ms=k * (duration_ms + isi_ms),
            duration_ms=duration_ms,
        )
        for k, (stimulus, _score) in enumerate(entries[:count])
    ]
    return make_sequence(items)


def emit_schedule(seq):
    """2 * |items| onset/offset events, chronologically sorted (ties:
    Offset before Onset, then by track label)."""
    events = []
    for item in seq.items:
        events.append(SyncEvent(item.start_ms, ONSET, item.stimulus, item.track))
        events.append(
            SyncEvent(item.start_ms + item.duration_ms, OFFSET, item.stimulus,
                      item.track)
        )
    events.sort(key=lambda e: (e.timestamp_ms, e.kind != OFFSET, e.track))
    return events


def sequence_to_json(seq):
    return json.dumps(
        {
            "items": [
                {
                    "stimulus": i.stimulus,
                    "track": i.track,
                    "startMs": i.start_ms,
                    "durationMs": i.duration_ms,
                }
                for i in seq.items
            ],
            "totalMs": seq.total_ms,
        },
        indent=2,
    )


def schedule_to_tsv(events):
    return "".join(
        f"{e.timestamp_ms}\t{e.kind}\t{e.track}\t{e.stimulus}\n" for e in events
    )
