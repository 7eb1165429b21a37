"""The measurement scripts still run against the package.

``scripts/us_per_offspring.py`` and ``scripts/ba_gap.py`` call the runners
directly, with their own recorder or ``update_state`` wrapper, so a change
to the runner contract can break them while every other test passes.  Each
script is read and executed as source, as ``test_bench_trace_sites.py``
reads the tracer; its grid constants are shrunk so that ``main()`` takes
about a second, and its tables must show one row per (m, algorithm).
"""
import logging
import types
from pathlib import Path

import pytest

from prefnorm.algorithms import ALGORITHMS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str) -> types.ModuleType:
    path = SCRIPTS / name
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture
def prefnorm_log_level():
    # the scripts silence the package's warnings for the whole process
    logger = logging.getLogger("prefnorm")
    level = logger.level
    yield
    logger.setLevel(level)


def table_rows(out: str) -> list[list[str]]:
    """The cells of every table row that is not a header or a rule."""
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in out.splitlines()
            if line.startswith("| ")
            and not line.startswith(("| m |", "| --- |"))]


def test_us_per_offspring_prints_every_cell(monkeypatch, capsys,
                                            prefnorm_log_level):
    script = load_script("us_per_offspring.py")
    for name, value in (("MU", 10), ("BUDGET", 50), ("SEEDS", (1,)),
                        ("OBJECTIVES", (2, 3)), ("REPEATS", 1),
                        ("CELL_RUNS", 3)):
        monkeypatch.setattr(script, name, value)
    script.main()
    rows = table_rows(capsys.readouterr().out)
    # the one-run table, then the "1 run / 3-run cell" table
    assert [row[0] for row in rows] == ["2", "3", "2", "3"]
    for row in rows[:2]:
        assert len(row) == 1 + len(ALGORITHMS)
        assert all(float(cell) > 0 for cell in row[1:])
    for row in rows[2:]:
        assert len(row) == 1 + len(ALGORITHMS)
        assert all(float(part) > 0 for cell in row[1:]
                   for part in cell.split(" / "))


def test_ba_gap_prints_every_cell(monkeypatch, capsys, prefnorm_log_level):
    script = load_script("ba_gap.py")
    for name, value in (("MU", 10), ("BUDGET", 50), ("SEEDS", (1,))):
        monkeypatch.setattr(script, name, value)
    script.main()
    rows = table_rows(capsys.readouterr().out)
    assert [(row[0], row[1]) for row in rows] == [
        (str(m), name) for m in (3, 5) for name in ALGORITHMS]
    generations = script.BUDGET // script.MU
    for row in rows:
        differ, total = map(int, row[2].split("/"))
        assert total == generations and 0 <= differ <= total
