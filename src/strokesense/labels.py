"""Stroke class labels with fixed integer codes."""

from enum import IntEnum


class StrokeLabel(IntEnum):
    FOREHAND_ATTACK = 0
    BACKHAND_ATTACK = 1
    FOREHAND_PUSH = 2
    BACKHAND_PUSH = 3
    FOREHAND_CHOP = 4
    BACKHAND_CHOP = 5

    @classmethod
    def from_name(cls, name: str) -> "StrokeLabel":
        key = name.strip().upper()
        return cls[key]


#: Number of stroke classes.
N_CLASSES = len(StrokeLabel)

#: Canonical spellings used in CSV sidecars and JSON reports.
LABEL_NAMES = [label.name for label in StrokeLabel]

#: Sentinel used for non-stroke spans in ground-truth files.
IDLE = "IDLE"
