"""Execution traces shared by the online and offline engines.

A trace records, per round, the request, the moves made (empty when the
request was already covered) and the multiset of server positions after
the round.  Positions may transiently coincide in offline executions, so
round configurations are sorted tuples that can carry repeats.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Move:
    origin: int
    target: int
    cost: int


@dataclass(frozen=True)
class Round:
    request: int
    moves: tuple[Move, ...]
    config: tuple[int, ...]


@dataclass(frozen=True)
class ExecutionTrace:
    initial: tuple[int, ...]
    rounds: tuple[Round, ...]
    total_cost: int

    def config_after(self, t: int) -> tuple[int, ...]:
        """Server positions at the end of round t; round 0 is the start."""
        if t == 0:
            return self.initial
        return self.rounds[t - 1].config

    def to_json(self) -> dict:
        return {
            "initial": list(self.initial),
            "total_cost": self.total_cost,
            "rounds": [
                {
                    "request": r.request,
                    "moves": [[m.origin, m.target, m.cost] for m in r.moves],
                    "config": list(r.config),
                }
                for r in self.rounds
            ],
        }
