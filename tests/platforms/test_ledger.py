"""Unit tests for the platform ledger: one fold per completed
invocation, billed time included."""

import math

from repro.platforms.base import InvocationRecord
from repro.platforms.ledger import BILLING_GRANULARITY_MS, InvocationLedger


def _record(function="fn", mode="warm", startup=10.0, exec_ms=5.0,
            other=1.0, queue_wait=0.0):
    record = InvocationRecord(function=function, platform="p", mode=mode,
                              submitted_ms=0.0)
    record.startup_ms = startup
    record.exec_ms = exec_ms
    record.other_ms = other
    record.queue_wait_ms = queue_wait
    return record


def _ledger(*records):
    ledger = InvocationLedger()
    for record in records:
        ledger.fold(record)
    return ledger


class TestEmpty:
    def test_a_new_ledger_holds_nothing(self):
        ledger = InvocationLedger()
        assert ledger.completed == 0
        assert ledger.by_mode == {}
        assert (ledger.failed, ledger.shed) == (0, 0)
        assert list(ledger.total_ms) == list(ledger.queue_wait_ms) == []

    def test_billed_time_starts_as_an_int(self):
        billed = InvocationLedger().billed_ms
        assert billed == 0 and type(billed) is int


class TestFold:
    def test_modes_counted_overall(self):
        ledger = _ledger(_record("a", "cold"), _record("a", "warm"),
                         _record("b", "warm"))
        assert ledger.completed == 3
        assert ledger.by_mode == {"cold": 1, "warm": 2}

    def test_columns_keep_completion_order(self):
        ledger = _ledger(_record(startup=3.0, queue_wait=0.5),
                         _record(startup=1.0, queue_wait=0.0),
                         _record(startup=2.0, queue_wait=2.5))
        assert list(ledger.total_ms) == [9.0, 7.0, 8.0]
        assert list(ledger.queue_wait_ms) == [0.5, 0.0, 2.5]

    def test_a_chain_entry_is_folded_without_its_hops(self):
        # The platform folds each hop as it completes; folding the entry
        # must not count them again.
        entry = _record("frontend")
        entry.children.append(_record("backend"))
        ledger = _ledger(entry)
        assert ledger.completed == 1
        assert list(ledger.total_ms) == [entry.total_ms]


class TestBilledTime:
    def test_granularity_is_one_millisecond(self):
        assert BILLING_GRANULARITY_MS == 1

    def test_fractional_exec_rounds_up(self):
        assert _ledger(_record(exec_ms=101.2)).billed_ms == 102

    def test_whole_milliseconds_are_billed_exactly(self):
        assert _ledger(_record(exec_ms=7.0)).billed_ms == 7

    def test_no_exec_bills_nothing(self):
        assert _ledger(_record(exec_ms=0.0)).billed_ms == 0

    def test_any_exec_bills_at_least_one_millisecond(self):
        assert _ledger(_record(exec_ms=1e-9)).billed_ms == 1

    def test_startup_and_other_time_are_not_billed(self):
        record = _record(startup=1000.0, exec_ms=2.5, other=500.0)
        assert _ledger(record).billed_ms == 3

    def test_billed_time_sums_per_invocation_round_ups(self):
        execs = (0.5, 1.5, 2.0, 10.01)
        ledger = _ledger(*(_record(exec_ms=e) for e in execs))
        assert ledger.billed_ms == sum(math.ceil(e) for e in execs) == 16
        assert type(ledger.billed_ms) is int

    def test_billed_time_takes_part_in_equality(self):
        # TestPaddedTracer compares whole ledgers; billed time must be
        # one of the compared fields.
        plain, other = _ledger(_record()), _ledger(_record())
        assert plain == other
        other.billed_ms += 1
        assert plain != other

