"""Dataset export (the paper publishes its measurement artifacts).

Serialises the synthetic AIM dataset to CSV and JSON so downstream
analyses can run outside this package (``repro aim``).

Both writers are crash-safe (:mod:`repro.atomicio`): a process killed
mid-export can never leave a truncated CSV/JSON under the destination
name.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields
from pathlib import Path

from repro.atomicio import atomic_open, atomic_write_text
from repro.measurements.aim import AimDataset, SpeedTest

_SPEEDTEST_FIELDS = [f.name for f in fields(SpeedTest)]


def write_aim_csv(dataset: AimDataset, path: str | Path) -> int:
    """Atomically write the dataset as CSV; returns the rows written."""
    with atomic_open(path, newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_SPEEDTEST_FIELDS)
        writer.writeheader()
        for test in dataset.tests:
            writer.writerow(asdict(test))
    return len(dataset.tests)


def write_aim_json(dataset: AimDataset, path: str | Path) -> int:
    """Atomically write the dataset as a JSON array; returns the row count."""
    payload = [asdict(test) for test in dataset.tests]
    atomic_write_text(path, json.dumps(payload, indent=1))
    return len(payload)
