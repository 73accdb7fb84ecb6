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


class ChartError(ValueError):
    pass


@dataclass(frozen=True)
class Chart:
    coords: Tuple[Tuple[str, str], ...]

    def __init__(self, coords: Iterable[Tuple[str, str]]):
        coords = tuple((str(n), str(r)) for n, r in coords)
        names = [n for n, _ in coords]
        if len(set(names)) != len(names):
            raise ChartError(f"duplicate coordinate names in {names}")
        for n, r in coords:
            if r not in ROLES:
                raise ChartError(f"unknown role {r!r} for coordinate {n!r}")
        if sum(1 for _, r in coords if r == "time") > 1:
            raise ChartError("at most one time coordinate is allowed")
        object.__setattr__(self, "coords", coords)

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.coords)

    @property
    def roles(self) -> Tuple[str, ...]:
        return tuple(r for _, r in self.coords)

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.coords):
            if n == name:
                return i
        raise ChartError(f"unknown coordinate {name!r} in chart {self.names}")

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.coords)

    @property
    def fiber_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, (_, r) in enumerate(self.coords) if r == "fiber")

    @property
    def fiber_names(self) -> Tuple[str, ...]:
        return tuple(n for n, r in self.coords if r == "fiber")

    @property
    def time_index(self) -> Optional[int]:
        for i, (_, r) in enumerate(self.coords):
            if r == "time":
                return i
        return None

    @property
    def has_time(self) -> bool:
        return self.time_index is not None

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
