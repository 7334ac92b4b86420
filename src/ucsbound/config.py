"""Knobs of the certificate search, kept apart from the search itself.

:mod:`ucsbound.optimizer` runs the search and re-exports both names;
the command line reads the defaults for its help text from here, so
building its parser does not load the search.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, fields

from .errors import GridTooLarge

__all__ = ["SearchConfig", "VERIFY_CONFIG"]

# Largest seed scan: a cell costs about 2 microseconds and 150 bytes.
_MAX_SEED_CELLS = 1 << 20


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the seed-scan-plus-refinement search.

    The defaults reproduce the reference evaluation to ~1e-9.
    :data:`VERIFY_CONFIG` is the finer setting of the published check.
    Each knob must be an integer, a numpy one included.  A grid of more
    than 2^20 seed cells raises :class:`GridTooLarge`, before any work.
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
        g = self.grid_points_per_axis
        if g < 2:
            raise ValueError("grid_points_per_axis must be >= 2")
        if g * g > _MAX_SEED_CELLS:
            raise GridTooLarge(
                f"a grid of {g} points per axis has {g * g} seed cells, "
                f"more than the {_MAX_SEED_CELLS} a search allows"
            )
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        if self.multistart_count < 1:
            raise ValueError("multistart_count must be >= 1")

    def to_json_dict(self) -> dict:
        return asdict(self)


# Search used by :func:`ucsbound.optimizer.verify_reference_point` and
# ``verify-paper``.
VERIFY_CONFIG = SearchConfig(grid_points_per_axis=96, refine_rounds=8)
