"""Unit tests for workload generators and arrival processes."""

from __future__ import annotations

import random

import pytest

from repro.content.kvstore import KVAggregate, KeyValueStore
from repro.content.minidb import MiniDB
from repro.content.queries import WriteOp
from repro.workloads import (
    DiurnalArrivals,
    ZipfKeys,
    catalog_dataset,
    filesystem_dataset,
    publications_dataset,
)


class TestZipfKeys:
    def test_rank_zero_most_popular(self, rng):
        keys = ZipfKeys(num_keys=100, skew=1.2)
        counts = {}
        for _ in range(5000):
            key = keys.sample(rng)
            counts[key] = counts.get(key, 0) + 1
        top = keys.key_name(0)
        assert counts[top] == max(counts.values())

    def test_zero_skew_is_roughly_uniform(self, rng):
        keys = ZipfKeys(num_keys=10, skew=0.0)
        counts = {k: 0 for k in keys.all_keys()}
        for _ in range(10_000):
            counts[keys.sample(rng)] += 1
        assert max(counts.values()) < 2 * min(counts.values())

    def test_all_keys_sampleable(self, rng):
        keys = ZipfKeys(num_keys=5, skew=0.5)
        seen = {keys.sample(rng) for _ in range(2000)}
        assert seen == set(keys.all_keys())

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfKeys(num_keys=0)
        with pytest.raises(ValueError):
            ZipfKeys(num_keys=5, skew=-1)


class TestArrivals:
    def test_diurnal_peak_vs_trough(self, rng):
        # Period 100s, peak at t=25, trough at t=75.
        model = DiurnalArrivals(base_rate=20.0, amplitude=0.9, period=100.0)
        times = list(model.times(0, 1000, rng))
        peak_window = sum(1 for t in times if (t % 100) // 25 == 0)
        trough_window = sum(1 for t in times if (t % 100) // 25 == 2)
        assert peak_window > 3 * trough_window

    def test_diurnal_rate_at(self):
        model = DiurnalArrivals(base_rate=10.0, amplitude=0.5, period=4.0)
        assert model.rate_at(1.0) == pytest.approx(15.0)  # sin peak
        assert model.rate_at(3.0) == pytest.approx(5.0)   # sin trough

    def test_diurnal_validation(self):
        with pytest.raises(ValueError):
            DiurnalArrivals(base_rate=0)
        with pytest.raises(ValueError):
            DiurnalArrivals(base_rate=1, amplitude=1.5)
        with pytest.raises(ValueError):
            DiurnalArrivals(base_rate=1, period=0)


class TestDatasets:
    def test_catalog_loads_into_kvstore(self, rng):
        items = catalog_dataset(30, rng)
        store = KeyValueStore(items)
        outcome = store.execute_read(KVAggregate(prefix="price/",
                                                 func="avg"))
        assert outcome.result["value"] is not None
        assert outcome.result["skipped"] == 0

    def test_catalog_size(self, rng):
        items = catalog_dataset(30, rng)
        assert len(items) == 60  # catalog + price entries

    def test_filesystem_dataset_greppable(self, rng):
        from repro.content.filesystem import FSGrep, MemoryFileSystem

        fs = MemoryFileSystem(filesystem_dataset(40, rng))
        assert fs.file_count() == 40
        matches = fs.execute_read(FSGrep(pattern="TODO", path="/")).result
        assert matches  # 10% of lines marked TODO makes hits near-certain

    def test_publications_dataset_applies_to_minidb(self, rng):
        db = MiniDB()
        for op in publications_dataset(40, rng):
            assert isinstance(op, WriteOp)
            db.apply_write(op)
        assert db.row_count("papers") == 40
        assert db.row_count("authors") == 10
