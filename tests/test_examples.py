"""Smoke tests keeping the runnable examples runnable.

Each fast example's ``main()`` is executed once with stdout captured; the
assertions pin the take-away lines so a regression in the underlying
library surfaces here before it surfaces for a user.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestQuickstart:
    def test_runs_and_reports_passive_band(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "generated" in out
        assert "passive sessions" in out
        assert "query classes" in out

    def test_headline_numbers_present(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "paper reports 75-90%" in out


class TestQueryCacheStudy:
    def test_raw_beats_user_in_output(self, capsys):
        load_example("query_cache_study").main()
        out = capsys.readouterr().out
        assert "raw hit rate" in out
        assert "takeaway" in out


class TestEvaluateSearchDesigns:
    def test_one_row_per_ttl_and_messages_never_fall(self, capsys):
        example = load_example("evaluate_search_designs")
        example.main()
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("flood TTL=")]
        assert [row[1] for row in rows] == [f"TTL={ttl}" for ttl in example.TTLS]
        messages = [float(row[2]) for row in rows]
        assert messages == sorted(messages)
