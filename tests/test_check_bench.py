"""``scripts/check_bench.py`` gate logic: named failures, never tracebacks.

The checker guards the committed ``BENCH_engine.json``.  A malformed or
schema-mismatched baseline — hand-edited, truncated by a bad merge, or
generated by an older schema — must fail CI with a message naming the
offending field, not die with a ``KeyError`` traceback that points at
the checker instead of the baseline.  These tests drive the committed-
baseline gates on synthetic payloads covering the happy path, every
malformation class, and the replica-cell perf gates.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent / "scripts" / "check_bench.py"
)
_spec = importlib.util.spec_from_file_location("check_bench", _SCRIPT)
assert _spec is not None and _spec.loader is not None
check_bench = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_bench", check_bench)
_spec.loader.exec_module(check_bench)

from repro.experiments.engine_bench import (  # noqa: E402
    CELLS,
    REPLICA_CELLS,
    SCHEMA_VERSION,
)
from dataclasses import asdict  # noqa: E402


def _good_payload() -> dict:
    """A committed baseline that satisfies every gate."""
    cells = []
    for cell in CELLS:
        row = dict(asdict(cell))
        row.update(
            classic_s=10.0,
            classic_slots_per_s=1.0,
            vectorized_s=2.0,
            vectorized_slots_per_s=1.0,
            blocked_s=1.0,
            blocked_slots_per_s=1.0,
            tx_total=100,
            speedup_blocked_vs_vectorized=2.0,
            speedup_blocked_vs_classic=10.0,
        )
        cells.append(row)
    replica_cells = []
    for rcell in REPLICA_CELLS:
        row = dict(asdict(rcell))
        row.update(
            batched_s=1.0,
            batched_replica_slots_per_s=1.0,
            classic_sample_mean_s=0.1,
            sequential_classic_s=10.0,
            sequential_blocked_s=2.0,
            tx_total=100,
            speedup_vs_sequential_classic=10.0,
            speedup_vs_sequential_blocked=2.0,
        )
        replica_cells.append(row)
    return {
        "schema": SCHEMA_VERSION,
        "cells": cells,
        "replica_cells": replica_cells,
    }


def _check(payload: dict) -> list[str]:
    return check_bench.check_committed(
        payload,
        committed_speedup_floor=1.5,
        replica_speedup_floor=5.0,
    )


def test_valid_baseline_passes():
    assert _check(_good_payload()) == []


def test_schema_mismatch_is_a_named_failure():
    payload = _good_payload()
    payload["schema"] = SCHEMA_VERSION - 1
    errors = _check(payload)
    assert len(errors) == 1
    assert "schema" in errors[0] and errors[0].startswith("FAIL")


def test_missing_timing_field_names_the_field():
    """A row without vectorized_s fails by name, not with a KeyError."""
    payload = _good_payload()
    del payload["cells"][0]["vectorized_s"]
    errors = _check(payload)
    assert any("'vectorized_s'" in e for e in errors), errors
    assert all(e.startswith("FAIL") for e in errors)


def test_missing_cell_definition_field_names_the_field():
    payload = _good_payload()
    del payload["cells"][1]["wake_window_mult"]
    errors = _check(payload)
    assert any("'wake_window_mult'" in e for e in errors), errors


def test_wrong_typed_field_names_the_field_and_value():
    payload = _good_payload()
    payload["cells"][0]["classic_s"] = "fast"
    errors = _check(payload)
    assert any("'classic_s'" in e and "'fast'" in e for e in errors), errors


def test_non_object_row_is_a_named_failure():
    payload = _good_payload()
    payload["replica_cells"][0] = "oops"
    errors = _check(payload)
    assert any("replica_cells[0]" in e for e in errors), errors


def test_rows_field_of_wrong_type_is_a_named_failure():
    payload = _good_payload()
    payload["replica_cells"] = {"replicas": 10}
    errors = _check(payload)
    assert any("'replica_cells'" in e for e in errors), errors


def test_missing_replica_cell_fails():
    payload = _good_payload()
    payload["replica_cells"] = payload["replica_cells"][:-1]
    errors = _check(payload)
    missing_r = REPLICA_CELLS[-1].replicas
    assert any(f"R={missing_r}" in e and "replica" in e for e in errors), errors


def test_replica_speedup_below_floor_fails():
    payload = _good_payload()
    payload["replica_cells"][0]["speedup_vs_sequential_classic"] = 2.5
    errors = _check(payload)
    assert any(
        "batched-vs-sequential-classic" in e and "2.50x" in e for e in errors
    ), errors


def test_cell_definition_drift_fails():
    """A baseline generated from stale cell definitions is rejected."""
    payload = _good_payload()
    payload["cells"][0]["wake_window_mult"] = 123
    errors = _check(payload)
    assert any("does not match the code's cell definition" in e for e in errors)


def test_malformed_baseline_never_raises():
    """Whatever shape the JSON takes, the checker reports, not crashes."""
    for payload in (
        {},
        {"schema": SCHEMA_VERSION},
        {"schema": SCHEMA_VERSION, "cells": [{}]},
        {"schema": SCHEMA_VERSION, "cells": [{"n": "x"}]},
        {"schema": SCHEMA_VERSION, "cells": 7},
    ):
        errors = _check(payload)
        assert errors, f"payload {payload!r} produced no errors"
        assert all(e.startswith("FAIL") for e in errors)


def test_committed_file_passes_skip_run():
    """The checked-in baseline satisfies its own gates end to end."""
    rc = check_bench.main(["--skip-run"])
    assert rc == 0


@pytest.mark.parametrize("floor,expect_fail", [(3.0, False), (1000.0, True)])
def test_replica_floor_is_tunable(floor, expect_fail):
    payload = _good_payload()
    errors = check_bench.check_committed(
        payload,
        committed_speedup_floor=1.5,
        replica_speedup_floor=floor,
    )
    assert bool(errors) == expect_fail
