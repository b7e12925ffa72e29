"""Two-way alternating parity automata on finite labeled trees (Defs 10–11).

A 2WAPA is ``A = (S, Γ, δ, s0, Ω)`` where ``δ : S × Γ → B+(tran(A))`` maps a
state and a letter to a positive Boolean formula over transitions
``⟨α⟩s`` / ``[α]s`` with ``α ∈ {-1, 0, *}``:

* ``⟨-1⟩s`` — send a copy to the parent (which must exist) in state s;
* ``⟨0⟩s``  — stay put in state s;
* ``⟨*⟩s``  — send a copy to *some* child;
* ``[α]s``  — the universal duals (vacuously true when no target exists).

A run is accepting if along every infinite path the maximal priority seen
infinitely often is even; the paper's constructions set ``Ω ≡ 1``, so they
accept exactly through finite runs.

Acceptance of a *given* finite tree is decided here by solving the standard
acceptance parity game (positions = (node, state/formula); Eve resolves
disjunctions and ⟨·⟩ moves, Adam conjunctions and [·] moves) with Zielonka's
algorithm — exact for arbitrary priorities, not just the Ω ≡ 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..trees.labeled_tree import LabeledTree, Node

State = Hashable
Direction = Union[int, str]  # -1, 0, or "*"

PARENT: Direction = -1
STAY: Direction = 0
CHILD: Direction = "*"


# ---------------------------------------------------------------------------
# Positive Boolean formulas over transitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    """Base class for positive Boolean transition formulas."""

    def dual(self) -> "Formula":
        raise NotImplementedError


@dataclass(frozen=True)
class Top(Formula):
    def dual(self) -> "Formula":
        return Bottom()

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class Bottom(Formula):
    def dual(self) -> "Formula":
        return Top()

    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Move(Formula):
    """``⟨α⟩s`` (existential) or ``[α]s`` (universal)."""

    direction: Direction
    state: State
    universal: bool = False

    def dual(self) -> "Formula":
        return Move(self.direction, self.state, not self.universal)

    def __str__(self) -> str:
        bracket = f"[{self.direction}]" if self.universal else f"⟨{self.direction}⟩"
        return f"{bracket}{self.state}"


@dataclass(frozen=True)
class And(Formula):
    parts: Tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))

    def dual(self) -> "Formula":
        return Or(tuple(p.dual() for p in self.parts))

    def __str__(self) -> str:
        return "(" + " ∧ ".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class Or(Formula):
    parts: Tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))

    def dual(self) -> "Formula":
        return And(tuple(p.dual() for p in self.parts))

    def __str__(self) -> str:
        return "(" + " ∨ ".join(map(str, self.parts)) + ")"


def conj(parts: Sequence[Formula]) -> Formula:
    """n-ary conjunction with unit simplification."""
    parts = [p for p in parts if not isinstance(p, Top)]
    if any(isinstance(p, Bottom) for p in parts):
        return Bottom()
    if not parts:
        return Top()
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def disj(parts: Sequence[Formula]) -> Formula:
    """n-ary disjunction with unit simplification."""
    parts = [p for p in parts if not isinstance(p, Bottom)]
    if any(isinstance(p, Top) for p in parts):
        return Top()
    if not parts:
        return Bottom()
    if len(parts) == 1:
        return parts[0]
    return Or(tuple(parts))


def diamond(direction: Direction, state: State) -> Formula:
    return Move(direction, state, universal=False)


def box(direction: Direction, state: State) -> Formula:
    return Move(direction, state, universal=True)


# ---------------------------------------------------------------------------
# The automaton
# ---------------------------------------------------------------------------


@dataclass
class TWAPA:
    """A two-way alternating parity automaton on finite labeled trees.

    ``delta`` is a Python callable (state, label) → Formula, which keeps
    alphabets like Γ_{S,l} implicit instead of materializing their
    double-exponential symbol set.  ``priority`` maps states to parities;
    states default to priority 1 (finite-runs-only, as in the paper).
    """

    states: FrozenSet[State]
    delta: Callable[[State, object], Formula]
    initial: State
    priority: Mapping[State, int] = field(default_factory=dict)
    name: str = "A"

    def priority_of(self, state: State) -> int:
        return self.priority.get(state, 1)

    # -- Boolean operations (closure properties used by Prop. 25) ---------

    def intersect(self, other: "TWAPA") -> "TWAPA":
        """A 2WAPA for L(self) ∩ L(other) (linear-size product-free trick)."""
        left = self._tagged("L")
        right = other._tagged("R")
        start = ("∩", left.initial, right.initial)

        def delta(state: State, label: object) -> Formula:
            if isinstance(state, tuple) and state and state[0] == "∩":
                return conj(
                    [left.delta(state[1], label), right.delta(state[2], label)]
                )
            if isinstance(state, tuple) and state and state[0] == "L":
                return left.delta(state, label)
            return right.delta(state, label)

        priorities = dict(left.priority)
        priorities.update(right.priority)
        priorities[start] = 1
        return TWAPA(
            frozenset({start}) | left.states | right.states,
            delta,
            start,
            priorities,
            name=f"({self.name}∩{other.name})",
        )

    def complement(self) -> "TWAPA":
        """The dual automaton: L(complement) = trees \\ L(self)."""
        base = self

        def delta(state: State, label: object) -> Formula:
            return base.delta(state, label).dual()

        priorities = {s: base.priority_of(s) + 1 for s in base.states}
        return TWAPA(
            base.states, delta, base.initial, priorities, name=f"¬{base.name}"
        )

    def _tagged(self, tag: str) -> "TWAPA":
        """Rename states to (tag, state) so unions are disjoint."""
        base = self

        def retag_formula(f: Formula) -> Formula:
            if isinstance(f, Move):
                return Move(f.direction, (tag, f.state), f.universal)
            if isinstance(f, And):
                return And(tuple(retag_formula(p) for p in f.parts))
            if isinstance(f, Or):
                return Or(tuple(retag_formula(p) for p in f.parts))
            return f

        def delta(state: State, label: object) -> Formula:
            return retag_formula(base.delta(state[1], label))

        return TWAPA(
            frozenset((tag, s) for s in base.states),
            delta,
            (tag, base.initial),
            {(tag, s): base.priority_of(s) for s in base.states},
            name=base.name,
        )

    # -- acceptance --------------------------------------------------------

    def accepts(self, tree: LabeledTree) -> bool:
        """Does the automaton accept *tree*?  Solved as a parity game."""
        if not tree.labels:
            return False
        game = _AcceptanceGame(self, tree)
        return game.eve_wins((tree.root, ("state", self.initial)))


# ---------------------------------------------------------------------------
# The acceptance parity game
# ---------------------------------------------------------------------------


_FormulaPos = Tuple[str, object]


class _AcceptanceGame:
    """The (node, state/formula) acceptance game, solved with Zielonka.

    Positions:
      (node, ("state", s))    — priority Ω(s), deterministic expansion;
      (node, ("formula", f))  — priority 0, owner by connective.
    Eve owns Or and existential moves; Adam owns And and universal moves.
    A player unable to move loses at their own position.
    """

    def __init__(self, automaton: TWAPA, tree: LabeledTree) -> None:
        self.automaton = automaton
        self.tree = tree
        self.successors: Dict[Tuple[Node, _FormulaPos], List] = {}
        self.owner: Dict[Tuple[Node, _FormulaPos], str] = {}
        self.prio: Dict[Tuple[Node, _FormulaPos], int] = {}
        self._build((tree.root, ("state", automaton.initial)))

    def _targets(self, node: Node, direction: Direction) -> List[Node]:
        if direction == 0:
            return [node]
        if direction == -1:
            parent = self.tree.parent(node)
            return [parent] if parent is not None else []
        if direction == "*":
            return self.tree.children(node)
        raise ValueError(f"bad direction {direction!r}")

    def _build(self, start: Tuple[Node, _FormulaPos]) -> None:
        stack = [start]
        seen: Set[Tuple[Node, _FormulaPos]] = set()
        while stack:
            pos = stack.pop()
            if pos in seen:
                continue
            seen.add(pos)
            node, (kind, payload) = pos
            if kind == "state":
                formula = self.automaton.delta(payload, self.tree.label(node))
                succ = [(node, ("formula", formula))]
                self.owner[pos] = "eve"  # deterministic: one successor
                self.prio[pos] = self.automaton.priority_of(payload)
            else:
                f = payload
                self.prio[pos] = 0
                if isinstance(f, Top):
                    self.owner[pos] = "adam"  # Adam stuck → Eve wins
                    succ = []
                elif isinstance(f, Bottom):
                    self.owner[pos] = "eve"  # Eve stuck → Adam wins
                    succ = []
                elif isinstance(f, Or):
                    self.owner[pos] = "eve"
                    succ = [(node, ("formula", p)) for p in f.parts]
                elif isinstance(f, And):
                    self.owner[pos] = "adam"
                    succ = [(node, ("formula", p)) for p in f.parts]
                elif isinstance(f, Move):
                    targets = self._targets(node, f.direction)
                    succ = [(t, ("state", f.state)) for t in targets]
                    self.owner[pos] = "adam" if f.universal else "eve"
                else:  # pragma: no cover - formula algebra is closed
                    raise TypeError(f"unknown formula {f!r}")
            self.successors[pos] = succ
            stack.extend(succ)

    _SINK_EVE = ("sink", "eve")  # Eve wins here: even self-loop, Adam-owned
    _SINK_ADAM = ("sink", "adam")  # Adam wins here: odd self-loop, Eve-owned

    def _totalize(self) -> None:
        """Redirect stuck positions into winning sinks so the game is total."""
        sinks = {
            self._SINK_EVE: ("adam", 0),
            self._SINK_ADAM: ("eve", 1),
        }
        for sink, (owner_, prio_) in sinks.items():
            self.owner[sink] = owner_
            self.prio[sink] = prio_
            self.successors[sink] = [sink]
        for pos, succ in list(self.successors.items()):
            if succ or pos in sinks:
                continue
            # The stuck owner loses: send them into the opponent's sink.
            self.successors[pos] = [
                self._SINK_ADAM if self.owner[pos] == "eve" else self._SINK_EVE
            ]

    def eve_wins(self, start) -> bool:
        self._totalize()
        eve_region, _ = _zielonka(
            frozenset(self.successors), self.successors, self.owner, self.prio
        )
        return start in eve_region


def _zielonka(
    positions: FrozenSet, successors, owner, priority
) -> Tuple[Set, Set]:
    """Zielonka's algorithm on a total parity game.

    Returns (W_eve, W_adam).  Every position must have ≥1 successor within
    *positions* at the top call; subgames preserve totality because they
    always arise by removing attractors.
    """
    if not positions:
        return set(), set()
    max_priority = max(priority[p] for p in positions)
    player = "eve" if max_priority % 2 == 0 else "adam"
    opponent = "adam" if player == "eve" else "eve"
    top = {p for p in positions if priority[p] == max_priority}
    attr = _attractor(positions, successors, owner, top, player)
    w_eve, w_adam = _zielonka(positions - attr, successors, owner, priority)
    opponent_region = w_eve if opponent == "eve" else w_adam
    if not opponent_region:
        return (set(positions), set()) if player == "eve" else (set(), set(positions))
    opp_attr = _attractor(positions, successors, owner, opponent_region, opponent)
    w_eve2, w_adam2 = _zielonka(positions - opp_attr, successors, owner, priority)
    if opponent == "eve":
        return w_eve2 | opp_attr, w_adam2
    return w_eve2, w_adam2 | opp_attr


def _attractor(positions, successors, owner, target, player) -> Set:
    """The *player*-attractor of *target* within *positions*."""
    attr = set(target) & set(positions)
    changed = True
    while changed:
        changed = False
        for p in set(positions) - attr:
            succ = [q for q in successors[p] if q in positions]
            if not succ:
                continue
            if owner[p] == player and any(q in attr for q in succ):
                attr.add(p)
                changed = True
            elif owner[p] != player and all(q in attr for q in succ):
                attr.add(p)
                changed = True
    return attr
