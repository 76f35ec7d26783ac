"""Deterministic bounded exponential backoff for idle wait loops.

The tcp submitter and worker both retry a lost broker connection, and
a fixed retry interval would hammer a restarting broker exactly when it
has nothing to say.  :class:`Backoff` is a deterministic geometric
schedule instead: each idle pass sleeps the current delay and doubles
it up to a cap, and *any* progress resets the schedule to its initial
delay.  No jitter on purpose — the sequence
``initial, initial*factor, ..., cap, cap, ...`` is exactly
reproducible, so tests pin it and traces stay comparable across runs.
"""

from __future__ import annotations

from repro.errors import AnalysisError

__all__ = ["Backoff"]


class Backoff:
    """A resettable geometric delay schedule (mutable, non-hashable).

    Executors stay small *frozen* dataclasses (they are embedded in
    backend equality and cache keys), so a :class:`Backoff` is never a
    field of one — wait loops construct a local instance per submit /
    serve call instead.
    """

    def __init__(
        self,
        initial: float,
        cap: float = 1.0,
        factor: float = 2.0,
    ) -> None:
        if initial <= 0:
            raise AnalysisError(
                f"backoff initial delay must be > 0, got {initial}"
            )
        if cap < initial:
            raise AnalysisError(
                f"backoff cap must be >= the initial delay "
                f"({initial}), got {cap}"
            )
        if factor < 1.0:
            raise AnalysisError(
                f"backoff factor must be >= 1, got {factor}"
            )
        self.initial = initial
        self.cap = cap
        self.factor = factor
        self._delay = initial

    def next(self) -> float:
        """The delay to sleep *now*; advances the schedule."""
        delay = self._delay
        self._delay = min(self._delay * self.factor, self.cap)
        return delay

    def peek(self) -> float:
        """The delay :meth:`next` would return, without advancing."""
        return self._delay

    def reset(self) -> None:
        """Progress happened: start over from the initial delay."""
        self._delay = self.initial

    def __repr__(self) -> str:
        return (
            f"Backoff(initial={self.initial}, cap={self.cap}, "
            f"factor={self.factor}, next={self._delay})"
        )
