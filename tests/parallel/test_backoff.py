"""Backoff schedule unit tests (the tcp transport's pinned reconnect
sequences live in ``test_netqueue.py``)."""

from __future__ import annotations

import pytest

from repro.errors import AnalysisError
from repro.parallel import Backoff


class TestBackoff:
    def test_schedule_doubles_to_cap(self):
        b = Backoff(0.05, cap=1.0)
        assert [b.next() for _ in range(7)] == [
            0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0,
        ]

    def test_reset_restarts_schedule(self):
        b = Backoff(0.1, cap=2.0)
        assert b.next() == 0.1
        assert b.next() == 0.2
        b.reset()
        assert b.next() == 0.1

    def test_peek_does_not_advance(self):
        b = Backoff(0.25, cap=1.0)
        assert b.peek() == 0.25
        assert b.peek() == 0.25
        assert b.next() == 0.25
        assert b.peek() == 0.5

    def test_custom_factor(self):
        b = Backoff(1.0, cap=10.0, factor=3.0)
        assert [b.next() for _ in range(4)] == [1.0, 3.0, 9.0, 10.0]

    def test_factor_one_is_constant(self):
        b = Backoff(0.5, cap=0.5, factor=1.0)
        assert [b.next() for _ in range(3)] == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"initial": 0.0}, "initial delay must be > 0"),
            ({"initial": -1.0}, "initial delay must be > 0"),
            ({"initial": 0.5, "cap": 0.1}, "cap must be >="),
            ({"initial": 0.1, "factor": 0.5}, "factor must be >= 1"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(AnalysisError, match=match):
            Backoff(**kwargs)

    def test_repr_mentions_schedule(self):
        assert "initial=0.05" in repr(Backoff(0.05))

