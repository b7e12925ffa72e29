"""Tiling problems (appendix, proofs of Theorems 16 and 34).

* The **Exponential Tiling Problem**: an instance ``(n, m, H, V, s)`` asks
  for a tiling ``f : 2ⁿ×2ⁿ → {1..m}`` honouring the horizontal/vertical
  compatibility relations and an initial-row constraint ``s``
  (NExpTime-hard in general).
* The **Extended Tiling Problem (ETP)** of [34]: ``(k, n, m, H1, V1, H2,
  V2)`` asks whether *every* initial condition of length k makes T1
  unsolvable or T2 solvable (PNEXP-hard).

Both come with brute-force solvers that are exact for the tiny instances
the tests and benches use (n ≤ 2 — the reductions' correctness is
instance-size independent, see DESIGN.md).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

Tile = int
Cell = Tuple[int, int]


@dataclass(frozen=True)
class TilingInstance:
    """An Exponential Tiling Problem instance ``(n, m, H, V, s)``.

    The grid is ``2ⁿ × 2ⁿ``; tiles are ``1..m``; ``horizontal`` holds the
    allowed pairs ``(f(i,j), f(i+1,j))``, ``vertical`` the allowed
    ``(f(i,j), f(i,j+1))``; ``initial`` constrains ``f(i,0)`` for
    ``i < len(initial)``.
    """

    n: int
    m: int
    horizontal: FrozenSet[Tuple[Tile, Tile]]
    vertical: FrozenSet[Tuple[Tile, Tile]]
    initial: Tuple[Tile, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizontal", frozenset(self.horizontal))
        object.__setattr__(self, "vertical", frozenset(self.vertical))
        object.__setattr__(self, "initial", tuple(self.initial))
        side = 2**self.n
        if len(self.initial) > side:
            raise ValueError("initial condition longer than the grid side")
        for t in self.initial:
            if not 1 <= t <= self.m:
                raise ValueError(f"initial tile {t} outside 1..{self.m}")

    @property
    def side(self) -> int:
        return 2**self.n


def solve_tiling(instance: TilingInstance) -> Optional[Dict[Cell, Tile]]:
    """Brute-force solver: a satisfying tiling or None.

    Backtracks cell by cell in row-major order, checking the left and
    below neighbours; exact, intended for ``n ≤ 2``.
    """
    side = instance.side
    tiles = range(1, instance.m + 1)
    assignment: Dict[Cell, Tile] = {}
    order: List[Cell] = [(i, j) for j in range(side) for i in range(side)]

    def candidates(cell: Cell) -> Iterable[Tile]:
        i, j = cell
        if j == 0 and i < len(instance.initial):
            return (instance.initial[i],)
        return tiles

    def consistent(cell: Cell, tile: Tile) -> bool:
        i, j = cell
        if i > 0 and (assignment[(i - 1, j)], tile) not in instance.horizontal:
            return False
        if j > 0 and (assignment[(i, j - 1)], tile) not in instance.vertical:
            return False
        return True

    def backtrack(index: int) -> bool:
        if index == len(order):
            return True
        cell = order[index]
        for tile in candidates(cell):
            if consistent(cell, tile):
                assignment[cell] = tile
                if backtrack(index + 1):
                    return True
                del assignment[cell]
        return False

    return dict(assignment) if backtrack(0) else None


def has_solution(instance: TilingInstance) -> bool:
    """True iff the instance admits a tiling."""
    return solve_tiling(instance) is not None


@dataclass(frozen=True)
class ETPInstance:
    """An Extended Tiling Problem instance ``(k, n, m, H1, V1, H2, V2)``."""

    k: int
    n: int
    m: int
    h1: FrozenSet[Tuple[Tile, Tile]]
    v1: FrozenSet[Tuple[Tile, Tile]]
    h2: FrozenSet[Tuple[Tile, Tile]]
    v2: FrozenSet[Tuple[Tile, Tile]]

    def __post_init__(self) -> None:
        for name in ("h1", "v1", "h2", "v2"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        if self.k > 2**self.n:
            raise ValueError("initial length k exceeds the grid side")

    def t1(self, initial: Sequence[Tile]) -> TilingInstance:
        return TilingInstance(self.n, self.m, self.h1, self.v1, tuple(initial))

    def t2(self, initial: Sequence[Tile]) -> TilingInstance:
        return TilingInstance(self.n, self.m, self.h2, self.v2, tuple(initial))

    def initial_conditions(self) -> Iterable[Tuple[Tile, ...]]:
        return itertools.product(range(1, self.m + 1), repeat=self.k)


def solve_etp(instance: ETPInstance) -> bool:
    """Brute force the ETP question.

    YES iff for every initial condition w of length k: T1 has no solution
    with w, or T2 has some solution with w.
    """
    for w in instance.initial_conditions():
        if has_solution(instance.t1(w)) and not has_solution(instance.t2(w)):
            return False
    return True


def all_pairs(m: int) -> FrozenSet[Tuple[Tile, Tile]]:
    """The full compatibility relation over 1..m (everything allowed)."""
    return frozenset(itertools.product(range(1, m + 1), repeat=2))


def equal_pairs(m: int) -> FrozenSet[Tuple[Tile, Tile]]:
    """The diagonal relation (tiles only match themselves)."""
    return frozenset((t, t) for t in range(1, m + 1))
