"""Knobs of the certificate search, kept apart from the search itself.

:mod:`ucsbound.optimizer` runs the search and re-exports
:class:`SearchConfig`; the command line reads the defaults for its help
text from here, so building its parser does not load the search.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .errors import GridTooLarge

__all__ = ["SearchConfig"]

# Largest seed scan, in cells.
_MAX_SEED_CELLS = 1 << 20


class _SearchConfig(NamedTuple):
    grid_points_per_axis: int = 64
    refine_rounds: int = 6
    multistart_count: int = 16


class SearchConfig(_SearchConfig):
    """Knobs of the seed-scan-plus-refinement search.

    The defaults are the search of every certificate, the published
    check's included, which they reproduce to ~1e-9.
    Each knob must be an integer, a numpy one included, and is stored as
    an int.  A grid of more than 2^20 seed cells raises
    :class:`GridTooLarge`, before any work.  Construction validates;
    ``_replace`` and ``_make`` do not, so build a changed copy as
    ``SearchConfig(**{**config._asdict(), ...})``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SearchConfig:
        knobs = []
        for name, value in zip(cls._fields, super().__new__(cls, *args, **kwargs)):
            try:
                knobs.append(operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        g, rounds, starts = knobs
        if g < 2:
            raise ValueError("grid_points_per_axis must be >= 2")
        if g * g > _MAX_SEED_CELLS:
            raise GridTooLarge(
                f"a grid of {g} points per axis has {g * g} seed cells, "
                f"more than the {_MAX_SEED_CELLS} a search allows"
            )
        if rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        if starts < 1:
            raise ValueError("multistart_count must be >= 1")
        return tuple.__new__(cls, knobs)

    def to_json_dict(self) -> dict:
        return self._asdict()
