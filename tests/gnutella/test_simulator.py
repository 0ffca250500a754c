"""Tests for the discrete-event scheduler."""

import pytest

from gnutella_reference.simulator import EventScheduler


class TestScheduling:
    def test_events_run_in_time_order(self):
        sched = EventScheduler()
        order = []
        sched.schedule(5.0, lambda: order.append("b"))
        sched.schedule(1.0, lambda: order.append("a"))
        sched.schedule(9.0, lambda: order.append("c"))
        sched.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sched = EventScheduler()
        order = []
        for tag in ("first", "second", "third"):
            sched.schedule(3.0, lambda tag=tag: order.append(tag))
        sched.run()
        assert order == ["first", "second", "third"]

    def test_clock_advances(self):
        sched = EventScheduler()
        seen = []
        sched.schedule(4.5, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [4.5]

    def test_schedule_after(self):
        sched = EventScheduler(start_time=10.0)
        seen = []
        sched.schedule_after(2.5, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [12.5]

    def test_cannot_schedule_in_past(self):
        sched = EventScheduler(start_time=100.0)
        with pytest.raises(ValueError):
            sched.schedule(50.0, lambda: None)
        with pytest.raises(ValueError):
            sched.schedule_after(-1.0, lambda: None)

    def test_callbacks_can_schedule_more(self):
        sched = EventScheduler()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sched.schedule_after(1.0, lambda: chain(n + 1))

        sched.schedule(0.0, lambda: chain(0))
        sched.run()
        assert seen == [0, 1, 2, 3]


class TestCancel:
    def test_cancelled_event_skipped(self):
        sched = EventScheduler()
        seen = []
        keep = sched.schedule(1.0, lambda: seen.append("keep"))
        drop = sched.schedule(2.0, lambda: seen.append("drop"))
        sched.cancel(drop)
        sched.run()
        assert seen == ["keep"]
        assert keep is not None


class TestRunUntil:
    def test_stops_at_deadline(self):
        sched = EventScheduler()
        seen = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sched.schedule(t, lambda t=t: seen.append(t))
        ran = sched.run_until(2.5)
        assert ran == 2
        assert seen == [1.0, 2.0]
        assert len(sched) == 2  # later events still queued

    def test_max_events_cap(self):
        sched = EventScheduler()
        for t in range(10):
            sched.schedule(float(t), lambda: None)
        assert sched.run_until(100.0, max_events=4) == 4

    def test_run_bounded(self):
        sched = EventScheduler()

        def reschedule():
            sched.schedule_after(1.0, reschedule)

        sched.schedule(0.0, reschedule)
        assert sched.run(max_events=50) == 50  # runaway loop bounded
