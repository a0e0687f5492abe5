"""Stroke class labels with fixed integer codes."""

from enum import IntEnum

from .errors import StrokeSenseError


class StrokeLabel(IntEnum):
    FOREHAND_ATTACK = 0
    BACKHAND_ATTACK = 1
    FOREHAND_PUSH = 2
    BACKHAND_PUSH = 3
    FOREHAND_CHOP = 4
    BACKHAND_CHOP = 5

    @classmethod
    def from_name(cls, name: str) -> "StrokeLabel":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise StrokeSenseError(f"unknown stroke label {name!r}") from None


#: Number of stroke classes.
N_CLASSES = len(StrokeLabel)

#: Sentinel used for non-stroke spans in ground-truth files.
IDLE = "IDLE"
