"""Generated-dataclass forms of `focalpipe.boxgeom.Box` and `ScoredBox`, used as the
reference for their hand-written constructors, and a hook that records every box built.

These are the records as first written: the dataclass generates `__init__`, which stores
each field through `object.__setattr__`, and `__post_init__` checks the stored fields. The
package's constructors must store the same fields, or raise the same exception with the same
message.
"""

from __future__ import annotations

import math
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from unittest import mock

from focalpipe import boxgeom


@dataclass(frozen=True, slots=True)
class Box:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for v in (self.x1, self.y1, self.x2, self.y2):
            if not math.isfinite(v):
                raise ValueError(f"non-finite box coordinate: {v!r}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(f"inverted box: {self}")


@dataclass(frozen=True, slots=True)
class ScoredBox:
    box: Box
    class_id: int
    score: float

    def __post_init__(self) -> None:
        if not 0 <= self.class_id < 2**63:
            raise ValueError(f"class id outside [0, 2^63): {self.class_id}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score outside [0, 1]: {self.score}")


@contextmanager
def records_built():
    """Each `boxgeom.Box` and `boxgeom.ScoredBox` built inside, as lists keyed by class:
    their constructors, wrapped."""
    built = {boxgeom.Box: [], boxgeom.ScoredBox: []}

    def recording(init, records):
        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            records.append(self)
        return record

    with ExitStack() as patches:
        for cls, records in built.items():
            patches.enter_context(mock.patch.object(cls, "__init__",
                                                    recording(cls.__init__, records)))
        yield built
