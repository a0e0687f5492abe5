"""Stroke class labels with fixed integer codes."""

from enum import IntEnum
from typing import Optional

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

#: Label of a span with no stroke; a blank field means the same.
IDLE = "IDLE"


def parse_label(field: str) -> Optional[StrokeLabel]:
    """The stroke a CSV label field names, in any case; ``None`` for a
    blank field or ``IDLE``."""
    return None if field.strip().upper() in ("", IDLE) else StrokeLabel.from_name(field)
