"""The cross-driver matrix: every driver, table mode, planner, chaos plan
and interruption must reproduce its case's uninterrupted sequential
report byte for byte (the cases and cells are in ``tests/harness.py``).

Cells that predate the matrix run under their old test IDs; this file
runs every other cell and checks the coverage rule over all of them.
"""

from __future__ import annotations

import importlib
import itertools

import pytest

from repro.sim.scenario import BUCKETS_PER_DAY

from tests.harness import (
    CASES,
    CELLS,
    CHAOS,
    DAEMONS,
    DRIVERS,
    HOMES,
    INTERRUPTIONS,
    check_cell,
)


@pytest.mark.parametrize(
    "cell", [cell for cell in CELLS if cell.id not in HOMES], ids=lambda c: c.id
)
def test_cell(cell, request, tmp_path):
    check_cell(cell, request, tmp_path)


def _valid(driver: str, interruption: str) -> bool:
    """Only a daemon can be stopped gracefully."""
    return interruption != "stop" or driver in DAEMONS


class TestCoverage:
    def test_cell_ids_are_unique_and_every_home_a_cell(self):
        ids = [cell.id for cell in CELLS]
        assert len(ids) == len(set(ids))
        assert set(HOMES) <= set(ids)
        assert len(set(HOMES.values())) == len(HOMES)

    def test_every_interruption_falls_inside_its_span(self):
        for cell in CELLS:
            case = CASES[cell.case]
            at = {
                "day": case.day_kill, "mid": case.mid_kill, "stop": case.stop
            }.get(cell.interruption)
            if at is not None:
                assert case.span[0] < at < case.span[1] - 1, cell.id
                assert (at % BUCKETS_PER_DAY == 0) == (cell.interruption == "day")

    def test_every_pair_of_driver_table_and_interruption(self):
        seen = {
            (cell.driver, CASES[cell.case].learned, cell.interruption)
            for cell in CELLS
        }
        tables = (False, True)
        for axes in ((0, 1), (0, 2), (1, 2)):
            wanted = {
                tuple(triple[i] for i in axes)
                for triple in itertools.product(DRIVERS, tables, INTERRUPTIONS)
                if _valid(triple[0], triple[2])
            }
            got = {tuple(triple[i] for i in axes) for triple in seen}
            assert wanted <= got, sorted(wanted - got)

    @pytest.mark.parametrize("axis", ["planner", "chaos"])
    def test_every_planner_and_chaos_value_with_every_driver(self, axis):
        """The shard-crash plan is the exception: it crashes shard
        workers, so under a driver without shards it is inert."""
        values = ("naive", "paper", "clustered") if axis == "planner" else CHAOS
        seen = {(getattr(CASES[cell.case], axis), cell.driver) for cell in CELLS}
        wanted = {
            (value, driver)
            for value, driver in itertools.product(values, DRIVERS)
            if value != "crash" or driver.startswith("sharded")
        }
        assert wanted <= seen

    def test_every_home_is_a_test(self):
        for home in HOMES.values():
            path, *names = home.split("[")[0].split("::")
            owner = importlib.import_module(path[:-3].replace("/", "."))
            for name in names:
                owner = getattr(owner, name)
            assert callable(owner), home
