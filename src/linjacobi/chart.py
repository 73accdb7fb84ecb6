"""Coordinate charts with base/fiber/time roles.

A chart fixes an ordered list of coordinate names, each tagged with a role:
``base`` coordinates live on the underlying manifold, ``fiber`` coordinates
are the linear coordinates on a vector-bundle fiber, and the (at most one)
``time`` coordinate carries the exponential symbol s = e^t used by
poissonization.  The declared order drives every canonical form downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

ROLES = ("base", "fiber", "time")

# Width of one field of a packed monomial key (see ring.ExpPoly): the
# s-exponent sits in the lowest field, coordinate i at FIELD_BITS*(dim - i).
FIELD_BITS = 64


class ChartError(ValueError):
    pass


@dataclass(frozen=True)
class Chart:
    """Equality and hash are those of `coords`; every query below is
    computed once, in __init__, and only read afterwards."""

    coords: Tuple[Tuple[str, str], ...]

    def __init__(self, coords: Iterable[Tuple[str, str]]):
        coords = tuple((str(n), str(r)) for n, r in coords)
        names = tuple(n for n, _ in coords)
        index = {n: i for i, n in enumerate(names)}
        if len(index) != len(names):
            raise ChartError(f"duplicate coordinate names in {list(names)}")
        for n, r in coords:
            if r not in ROLES:
                raise ChartError(f"unknown role {r!r} for coordinate {n!r}")
        times = [i for i, (_, r) in enumerate(coords) if r == "time"]
        if len(times) > 1:
            raise ChartError("at most one time coordinate is allowed")
        fiber = tuple(i for i, (_, r) in enumerate(coords) if r == "fiber")
        # frozen: fill the instance dict directly
        self.__dict__.update(coords=coords, _names=names, _index=index,
                             _roles=tuple(r for _, r in coords),
                             _fiber_indices=fiber,
                             _fiber_names=tuple(names[i] for i in fiber),
                             _time_index=times[0] if times else None,
                             _units=tuple(1 << (FIELD_BITS * (len(coords) - i))
                                          for i in range(len(coords))))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Chart):
            return NotImplemented
        return self.coords == other.coords

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def roles(self) -> Tuple[str, ...]:
        return self._roles

    def index(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            raise ChartError(f"unknown coordinate {name!r} in chart {self.names}")
        return i

    def has(self, name: str) -> bool:
        return name in self._index

    @property
    def fiber_indices(self) -> Tuple[int, ...]:
        return self._fiber_indices

    @property
    def fiber_names(self) -> Tuple[str, ...]:
        return self._fiber_names

    @property
    def time_index(self) -> Optional[int]:
        return self._time_index

    @property
    def has_time(self) -> bool:
        return self._time_index is not None

    @property
    def units(self) -> Tuple[int, ...]:
        """The packed key of each coordinate to the first power."""
        return self._units

    # -- derived charts ------------------------------------------------

    def restrict(self, roles: Iterable[str]) -> "Chart":
        """Sub-chart of the coordinates whose role is in `roles`, same order."""
        roles = set(roles)
        return Chart(tuple(c for c in self.coords if c[1] in roles))

    def extend(self, name: str, role: str) -> "Chart":
        """New chart with one coordinate appended."""
        return Chart(self.coords + ((name, role),))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{r}" for n, r in self.coords)
        return f"Chart({inner})"
