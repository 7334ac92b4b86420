"""Knobs of the certificate search, kept apart from the search itself.

:mod:`ucsbound.optimizer` runs the search and re-exports both names;
the command line reads the defaults for its help text from here, so
building its parser does not load the search.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, fields

__all__ = ["SearchConfig", "VERIFY_CONFIG"]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the seed-scan-plus-refinement search.

    The defaults reproduce the reference evaluation to ~1e-9.
    :data:`VERIFY_CONFIG` is the finer setting of the published check.
    Each knob must be an integer, a numpy one included.
    """

    grid_points_per_axis: int = 64
    refine_rounds: int = 6
    multistart_count: int = 16

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                object.__setattr__(self, f.name, operator.index(value))
            except TypeError:
                raise ValueError(f"{f.name} must be an integer, got {value!r}") from None
        if self.grid_points_per_axis < 2:
            raise ValueError("grid_points_per_axis must be >= 2")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        if self.multistart_count < 1:
            raise ValueError("multistart_count must be >= 1")

    def to_json_dict(self) -> dict:
        return asdict(self)


# Search used by :func:`ucsbound.optimizer.verify_reference_point` and
# ``verify-paper``.
VERIFY_CONFIG = SearchConfig(grid_points_per_axis=96, refine_rounds=8)
