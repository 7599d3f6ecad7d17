"""Exception and check-result types shared across the package."""
from __future__ import annotations

from dataclasses import dataclass


class InvalidVertexError(ValueError):
    """A vertex word is malformed or not a member of the target topology."""


class ResourceLimitError(RuntimeError):
    """A requested graph or cycle exceeds the materialization cap."""


class DisconnectedGraphError(RuntimeError):
    """A whole-graph metric was requested on a graph with unreachable vertices."""

    def __init__(self, unreachable: int):
        self.unreachable = unreachable
        super().__init__(f"graph is disconnected: {unreachable} unreachable vertices")


class ConstructionError(RuntimeError):
    """A cycle construction cannot close with the given factors."""


@dataclass(frozen=True)
class Check:
    """Outcome of a validator: ok, else a reason and the offending vertices or edge, if any."""

    ok: bool
    reason: str = ""
    witness: tuple | None = None
