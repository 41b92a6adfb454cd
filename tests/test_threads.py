import os

import pytest

from specmosaic import FormatError, ShapeError
from specmosaic._threads import map_records, worker_count


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def test_worker_count_capped_at_usable_cpus(monkeypatch):
    monkeypatch.setenv("SPECMOSAIC_THREADS", "64")
    assert 1 <= worker_count() <= _usable_cpus()
    monkeypatch.setenv("SPECMOSAIC_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.setenv("SPECMOSAIC_THREADS", "0")
    assert worker_count() == _usable_cpus()


@pytest.mark.parametrize("raw", ["-1", "two", "1.5"])
def test_worker_count_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("SPECMOSAIC_THREADS", raw)
    with pytest.raises(ValueError, match="SPECMOSAIC_THREADS"):
        worker_count()


def test_map_records_names_the_failing_item():
    def fn(x):
        if x == "shape":
            raise ShapeError("bad shape")
        if x == "io":
            raise PermissionError("denied")
        return x.upper()

    assert map_records(fn, ["a", "b"]) == ["A", "B"]
    with pytest.raises(ShapeError, match=r"^pair 1: bad shape$"):
        map_records(fn, ["a", "shape"], what="pair")
    with pytest.raises(FormatError, match=r"^record 2: denied$"):
        map_records(fn, ["a", "b", "io"])
