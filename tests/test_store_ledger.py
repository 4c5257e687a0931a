"""Tests for repro.store — digests, codecs, and the run ledger."""

import json
import os
import pickle

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.experiments import ExperimentHarness, make_workload
from repro.store import (
    LedgerEntry,
    RunLedger,
    array_digest,
    canonical_json,
    coerce_ledger,
    dataset_fingerprint,
    decode_group_rates,
    decode_method_result,
    default_store_root,
    encode_group_rates,
    encode_method_result,
    task_digest,
)


def _task(**extra):
    return {"kind": "method_result", "method": "pfr", "gamma": 0.5, **extra}


class TestTaskDigest:
    def test_deterministic(self):
        assert task_digest(_task()) == task_digest(_task())

    def test_key_order_irrelevant(self):
        a = {"kind": "x", "b": 1, "a": 2}
        b = {"a": 2, "b": 1, "kind": "x"}
        assert task_digest(a) == task_digest(b)

    def test_kind_namespaces(self):
        a = {"kind": "method_result", "x": 1}
        b = {"kind": "model", "x": 1}
        assert task_digest(a) != task_digest(b)

    def test_value_changes_digest(self):
        assert task_digest(_task(gamma=0.5)) != task_digest(_task(gamma=0.7))

    def test_numpy_scalars_canonicalize(self):
        assert task_digest(_task(gamma=np.float64(0.5))) == task_digest(
            _task(gamma=0.5)
        )
        assert task_digest(_task(seed=np.int64(3))) == task_digest(
            _task(seed=3)
        )

    def test_tuples_and_lists_canonicalize(self):
        assert task_digest(_task(cols=(1, 2))) == task_digest(_task(cols=[1, 2]))

    def test_requires_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            task_digest({"method": "pfr"})

    def test_rejects_unserializable(self):
        with pytest.raises(ValidationError, match="canonicalize"):
            task_digest({"kind": "x", "bad": object()})

    def test_canonical_json_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_digest_depends_on_library_version(self, monkeypatch):
        """Entries written by one release must never be hits for another:
        a result is a function of the code as much as of the task."""
        import repro.store.digests as digests_mod

        base = task_digest(_task())
        monkeypatch.setattr(digests_mod, "__version__", "999.0.0")
        assert task_digest(_task()) != base


class TestArrayAndDatasetDigests:
    def test_array_digest_sensitivity(self):
        x = np.arange(6, dtype=np.float64)
        assert array_digest(x) == array_digest(x.copy())
        assert array_digest(x) != array_digest(x.reshape(2, 3))
        assert array_digest(x) != array_digest(x.astype(np.float32))
        assert array_digest(None) != array_digest(x)

    def test_dataset_fingerprint_content_addressed(self):
        a = make_workload("synthetic", seed=0, scale=0.3)
        b = make_workload("synthetic", seed=0, scale=0.3)
        c = make_workload("synthetic", seed=1, scale=0.3)
        assert dataset_fingerprint(a) == dataset_fingerprint(b)
        assert (
            dataset_fingerprint(a)["sha256"]
            != dataset_fingerprint(c)["sha256"]
        )

    def test_fingerprint_cached_in_metadata(self):
        data = make_workload("synthetic", seed=0, scale=0.3)
        first = dataset_fingerprint(data)
        assert "_repro_content_digest" in data.metadata
        data.metadata["_repro_content_digest"] = "sentinel"
        assert dataset_fingerprint(data)["sha256"] == "sentinel"
        assert first["name"] == "synthetic"

    def test_make_workload_stamps_provenance(self):
        data = make_workload("crime", seed=3, scale=0.2)
        assert data.metadata["provenance"] == {
            "workload": "crime", "seed": 3, "scale": 0.2,
        }


class TestCodecs:
    @pytest.fixture(scope="class")
    def result(self):
        harness = ExperimentHarness(
            make_workload("synthetic", seed=0, scale=0.3),
            seed=0, n_components=2,
        )
        return harness.run_method("pfr", gamma=0.5)

    def test_method_result_roundtrip_exact(self, result):
        decoded = decode_method_result(encode_method_result(result))
        assert decoded.method == result.method
        assert decoded.dataset == result.dataset
        assert decoded.auc == result.auc
        assert decoded.consistency_wx == result.consistency_wx
        assert decoded.consistency_wf == result.consistency_wf
        assert decoded.summary() == result.summary()

    def test_group_rates_roundtrip_restores_int_keys(self, result):
        decoded = decode_group_rates(encode_group_rates(result.rates))
        assert decoded.groups == tuple(result.rates.groups)
        # Figure drivers index rates with *int* group values.
        assert decoded.positive_rate[0] == result.rates.positive_rate[0]
        assert decoded.fpr[1] == result.rates.fpr[1]
        assert decoded.counts == result.rates.counts
        assert decoded.gap("positive_rate") == result.rates.gap("positive_rate")

    def test_auc_by_group_keys_survive(self, result):
        decoded = decode_method_result(encode_method_result(result))
        assert decoded.auc_by_group["any"] == result.auc_by_group["any"]
        assert decoded.auc_by_group[0] == result.auc_by_group[0]
        assert decoded.auc_by_group[1] == result.auc_by_group[1]

    def test_roundtrip_survives_json_text(self, result):
        # The ledger stores payloads as JSON text; NaN-capable, exact floats.
        payload = json.loads(json.dumps(encode_method_result(result)))
        decoded = decode_method_result(payload)
        assert decoded.auc == result.auc
        assert decoded.rates.positive_rate[0] == result.rates.positive_rate[0]

    def test_nan_survives(self, result):
        encoded = encode_method_result(result)
        encoded["auc_by_group"].append([["i", 7], float("nan")])
        rehydrated = json.loads(json.dumps(encoded))
        decoded = decode_method_result(rehydrated)
        assert np.isnan(decoded.auc_by_group[7])


class TestRunLedger:
    def test_put_get_roundtrip(self, tmp_path):
        ledger = RunLedger(tmp_path)
        task = _task()
        entry = ledger.put(task, {"x": 1.5})
        assert entry.digest == task_digest(task)
        assert ledger.contains(entry.digest)
        fetched = ledger.get(entry.digest)
        assert fetched.payload == {"x": 1.5}
        assert fetched.kind == "method_result"
        assert fetched.task == task

    def test_get_missing_returns_none(self, tmp_path):
        assert RunLedger(tmp_path).get("0" * 64) is None
        assert not RunLedger(tmp_path).contains("0" * 64)

    def test_put_rejects_non_dict_payload(self, tmp_path):
        with pytest.raises(ValidationError, match="payloads must be dicts"):
            RunLedger(tmp_path).put(_task(), [1, 2])

    def test_idempotent_overwrite(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.put(_task(), {"x": 1})
        ledger.put(_task(), {"x": 1})
        assert len(ledger.ls()) == 1

    def test_ls_filters_by_kind(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.put({"kind": "a", "i": 1}, {})
        ledger.put({"kind": "b", "i": 2}, {})
        assert len(ledger.ls()) == 2
        assert [e.kind for e in ledger.ls(kind="a")] == ["a"]
        assert RunLedger(tmp_path / "empty").ls() == []

    def test_blas_pool_sizes_stored_as_metadata(self, tmp_path):
        from repro._blas import pool_sizes

        ledger = RunLedger(tmp_path)
        task = _task()
        entry = ledger.put(task, {"x": 1})
        # Provenance next to library_version, outside the content address.
        assert entry.blas == pool_sizes()
        assert ledger.get(entry.digest).blas == pool_sizes()
        assert entry.digest == task_digest(task)
        assert "blas" not in entry.task

    def test_entry_without_blas_field_still_loads(self, tmp_path):
        # Entries written before the field existed read back with blas=None.
        ledger = RunLedger(tmp_path)
        entry = ledger.put(_task(), {"x": 1})
        path = ledger._object_path(entry.digest)
        data = json.loads(path.read_text())
        del data["blas"]
        path.write_text(json.dumps(data))
        old = ledger.get(entry.digest)
        assert old.blas is None and old.payload == {"x": 1}
        assert ledger.verify()["problems"] == []

    def test_pickles_to_root_only(self, tmp_path):
        ledger = RunLedger(tmp_path)
        clone = pickle.loads(pickle.dumps(ledger))
        assert clone == ledger
        clone.put(_task(), {"x": 1})
        assert ledger.contains(task_digest(_task()))

    def test_coerce(self, tmp_path):
        assert coerce_ledger(None) is None
        ledger = RunLedger(tmp_path)
        assert coerce_ledger(ledger) is ledger
        assert coerce_ledger(str(tmp_path)) == ledger

    def test_coerce_rejects_non_path_naming_the_value(self):
        # Regression: a bogus store= argument used to surface as a bare
        # TypeError from Path() deep inside a worker; now the error names
        # what was passed.
        with pytest.raises(ValidationError, match="int: 123"):
            coerce_ledger(123)

    def test_coerce_rejects_file_naming_the_path(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("plain file")
        with pytest.raises(ValidationError, match=str(target)):
            coerce_ledger(target)

    def test_counts_inventory(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.put({"kind": "a", "i": 1}, {})
        ledger.put({"kind": "a", "i": 2}, {})
        ledger.put({"kind": "b", "i": 3}, {})
        garbage = tmp_path / "objects" / "ab" / ("e" * 64 + ".json")
        garbage.parent.mkdir(parents=True, exist_ok=True)
        garbage.write_text("{not json")
        counts = ledger.counts()
        assert counts["entries"] == 3
        assert counts["by_kind"] == {"a": 2, "b": 1}
        assert counts["model_blobs"] == 0
        assert counts["corrupt"] == 1

    def test_counts_does_not_skew_stats(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.put(_task(), {"x": 1})
        before = ledger.stats()["lookups"]
        ledger.counts()
        assert ledger.stats()["lookups"] == before

    def test_counts_empty_store(self, tmp_path):
        counts = RunLedger(tmp_path / "void").counts()
        assert counts["entries"] == 0
        assert counts["by_kind"] == {}

    def test_default_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "s"))
        assert default_store_root() == tmp_path / "s"
        monkeypatch.delenv("REPRO_STORE")
        assert default_store_root().name == "store"


class TestCrashSafety:
    def test_midwrite_failure_leaves_no_entry(self, tmp_path, monkeypatch):
        """A crash between temp-write and rename must leave no corrupt entry."""
        import repro.io as io_mod

        ledger = RunLedger(tmp_path)

        def exploding_replace(src, dst):
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(io_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated"):
            ledger.put(_task(), {"x": 1})
        monkeypatch.undo()
        # No entry, no stray temp file, and the ledger still verifies clean.
        assert not ledger.contains(task_digest(_task()))
        assert list(tmp_path.glob("objects/**/*.tmp")) == []
        assert ledger.verify() == {"checked": 0, "problems": []}

    def test_midwrite_failure_preserves_old_entry(self, tmp_path, monkeypatch):
        import repro.io as io_mod

        ledger = RunLedger(tmp_path)
        ledger.put(_task(), {"x": 1})

        monkeypatch.setattr(
            io_mod.os, "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            ledger.put(_task(), {"x": 2})
        monkeypatch.undo()
        assert ledger.get(task_digest(_task())).payload == {"x": 1}


class TestVerify:
    def test_clean_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.put(_task(), {"x": 1})
        assert ledger.verify() == {"checked": 1, "problems": []}

    def test_detects_garbage_json(self, tmp_path):
        ledger = RunLedger(tmp_path)
        entry = ledger.put(_task(), {"x": 1})
        os.truncate(entry.path, 10)
        report = ledger.verify()
        assert report["checked"] == 1
        assert "unreadable" in report["problems"][0]["error"]
        with pytest.raises(ValidationError, match="corrupt ledger entry"):
            ledger.get(entry.digest)

    def test_detects_tampered_task(self, tmp_path):
        ledger = RunLedger(tmp_path)
        entry = ledger.put(_task(), {"x": 1})
        data = json.loads(open(entry.path).read())
        data["task"]["gamma"] = 0.9  # content no longer hashes to the address
        open(entry.path, "w").write(json.dumps(data))
        report = ledger.verify()
        assert "does not hash" in report["problems"][0]["error"]

    def test_detects_renamed_entry(self, tmp_path):
        ledger = RunLedger(tmp_path)
        entry = ledger.put(_task(), {"x": 1})
        bogus = "f" * 64
        target = tmp_path / "objects" / bogus[:2] / f"{bogus}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        os.rename(entry.path, target)
        report = ledger.verify()
        assert "mismatches filename" in report["problems"][0]["error"]

    def test_detects_missing_model_blob(self, tmp_path):
        harness = ExperimentHarness(
            make_workload("synthetic", seed=0, scale=0.3),
            seed=0, n_components=2, store=tmp_path,
        )
        entry = harness.export_model("pfr", gamma=0.5)
        ledger = RunLedger(tmp_path)
        os.unlink(ledger.model_path(entry.digest))
        report = ledger.verify()
        assert any("model blob" in p["error"] for p in report["problems"])


class TestGc:
    def test_sweeps_stray_tmp_files(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.put(_task(), {"x": 1})
        stray = tmp_path / "objects" / "ab" / ".junk-123.tmp"
        stray.parent.mkdir(parents=True, exist_ok=True)
        stray.write_text("partial")
        report = ledger.gc(orphan_grace=0.0)
        assert report["tmp_files"] == [str(stray)]
        assert not stray.exists()
        assert len(ledger.ls()) == 1  # entries untouched without a filter

    def test_grace_protects_inflight_tmp_files(self, tmp_path):
        """A fresh .tmp may be a concurrent atomic_write mid-flight; gc
        must not reap it (that would crash the writer's os.replace)."""
        ledger = RunLedger(tmp_path)
        ledger.put(_task(), {"x": 1})
        inflight = tmp_path / "objects" / "ab" / ".entry-456.tmp"
        inflight.parent.mkdir(parents=True, exist_ok=True)
        inflight.write_text("being written right now")
        report = ledger.gc()  # default grace
        assert report["tmp_files"] == []
        assert inflight.exists()

    def test_kind_filter_removes_entries(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.put({"kind": "a", "i": 1}, {})
        keep = ledger.put({"kind": "b", "i": 2}, {})
        report = ledger.gc(kind="a")
        assert len(report["removed"]) == 1
        assert [e.digest for e in ledger.ls()] == [keep.digest]

    def test_older_than_filter(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.put(_task(), {"x": 1})
        assert ledger.gc(older_than=3600.0)["removed"] == []
        removed = ledger.gc(older_than=0.0)["removed"]
        assert len(removed) == 1
        assert ledger.ls() == []

    def test_dry_run_touches_nothing(self, tmp_path):
        ledger = RunLedger(tmp_path)
        entry = ledger.put({"kind": "a", "i": 1}, {})
        report = ledger.gc(kind="a", dry_run=True)
        assert report["removed"] == [entry.digest]
        assert ledger.contains(entry.digest)

    def test_removes_orphaned_model_blob(self, tmp_path):
        harness = ExperimentHarness(
            make_workload("synthetic", seed=0, scale=0.3),
            seed=0, n_components=2, store=tmp_path,
        )
        entry = harness.export_model("pfr", gamma=0.5)
        ledger = RunLedger(tmp_path)
        # Drop the entry but not the blob: the blob is now unreachable.
        os.unlink(entry.path)
        report = ledger.gc(orphan_grace=0.0)
        assert report["orphans"] == [entry.digest]
        assert not ledger.model_path(entry.digest).exists()

    def test_orphan_grace_protects_fresh_blobs(self, tmp_path):
        """put() writes the blob before the entry; a concurrent gc must not
        reap the blob inside that window."""
        harness = ExperimentHarness(
            make_workload("synthetic", seed=0, scale=0.3),
            seed=0, n_components=2, store=tmp_path,
        )
        entry = harness.export_model("pfr", gamma=0.5)
        ledger = RunLedger(tmp_path)
        os.unlink(entry.path)  # blob now entry-less, but freshly written
        report = ledger.gc()  # default grace
        assert report["orphans"] == []
        assert ledger.model_path(entry.digest).exists()

    def test_gc_sweeps_corrupt_entries(self, tmp_path):
        """The repair path verify advertises: gc removes unreadable entries."""
        ledger = RunLedger(tmp_path)
        victim = ledger.put(_task(), {"x": 1})
        keep = ledger.put({"kind": "b", "i": 2}, {"y": 2})
        os.truncate(victim.path, 8)
        # ls (and gc-by-kind, which iterates it) must not explode.
        assert [e.digest for e in ledger.ls()] == [keep.digest]
        dry = ledger.gc(dry_run=True)
        assert dry["corrupt"] == [victim.digest]
        assert os.path.exists(victim.path)
        report = ledger.gc()
        assert report["corrupt"] == [victim.digest]
        assert not os.path.exists(victim.path)
        assert ledger.verify() == {"checked": 1, "problems": []}


class TestModelBlobs:
    def test_export_then_load(self, tmp_path):
        data = make_workload("synthetic", seed=0, scale=0.3)
        harness = ExperimentHarness(
            data, seed=0, n_components=2, store=tmp_path
        )
        entry = harness.export_model("pfr", gamma=0.5)
        assert entry.kind == "model"
        assert entry.has_model
        assert entry.payload["model_type"] == "PFR"
        assert entry.payload["stage_digests"]  # plan provenance captured
        model = RunLedger(tmp_path).load_model(entry.digest)
        Z = model.transform(harness.X_test)
        assert Z.shape == (len(harness.test_idx), 2)

    def test_export_is_cached(self, tmp_path):
        harness = ExperimentHarness(
            make_workload("synthetic", seed=0, scale=0.3),
            seed=0, n_components=2, store=tmp_path,
        )
        first = harness.export_model("pfr", gamma=0.5)
        second = harness.export_model("pfr", gamma=0.5)
        assert first.digest == second.digest
        assert len(RunLedger(tmp_path).ls(kind="model")) == 1

    def test_export_hits_an_entry_keyed_as_before(self, tmp_path, monkeypatch):
        # A model entry under the export task as ledgers have always keyed
        # it is returned as it is, with no refit.
        harness = ExperimentHarness(
            make_workload("synthetic", seed=0, scale=0.3),
            seed=0, n_components=2, store=tmp_path,
        ).prepare()
        task = {"kind": "model", "harness": harness.task_fingerprint(),
                "method": "pfr", "gamma": 0.5, "params": {"ridge": 1e-6}}
        model = harness._fit_base_estimator(
            "pfr", harness._split_rows(harness.X_train), gamma=0.5,
            method_params={"ridge": 1e-6},
        )
        written = RunLedger(tmp_path).put(
            task, {"model_type": "PFR", "method": "pfr", "gamma": 0.5,
                   "stage_digests": {}}, model=model,
        )

        def refit(*args, **kwargs):
            raise AssertionError("export_model refitted a ledgered model")

        monkeypatch.setattr(ExperimentHarness, "_fit_base_estimator", refit)
        entry = harness.export_model("pfr", gamma=0.5, ridge=1e-6)
        assert entry.digest == written.digest == task_digest(task)
        assert entry.payload == written.payload

    def test_export_requires_store(self):
        harness = ExperimentHarness(
            make_workload("synthetic", seed=0, scale=0.3), seed=0,
        )
        with pytest.raises(ValidationError, match="store"):
            harness.export_model("pfr")

    def test_export_rejects_pipelines(self, tmp_path):
        harness = ExperimentHarness(
            make_workload("synthetic", seed=0, scale=0.3),
            seed=0, store=tmp_path,
        )
        with pytest.raises(ValidationError, match="base representation"):
            harness.export_model("pfr+")
        with pytest.raises(ValidationError, match="base representation"):
            harness.export_model("hardt")

    def test_load_model_without_blob_fails(self, tmp_path):
        ledger = RunLedger(tmp_path)
        entry = ledger.put(_task(), {"x": 1})
        with pytest.raises(ValidationError, match="no model artifact"):
            ledger.load_model(entry.digest)
        with pytest.raises(ValidationError, match="no ledger entry"):
            ledger.load_model("0" * 64)

    def test_register_from_ledger(self, tmp_path):
        from repro.serving import ModelRegistry

        harness = ExperimentHarness(
            make_workload("synthetic", seed=0, scale=0.3),
            seed=0, n_components=2, store=tmp_path / "ledger",
        )
        entry = harness.export_model("pfr", gamma=0.5)
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.register_from_ledger(
            tmp_path / "ledger", entry.digest, "synthetic-pfr"
        )
        assert record.spec == "synthetic-pfr@1"
        assert record.model_type == "PFR"
        # Fit-plan provenance flows ledger -> artifact -> manifest.
        assert record.stage_digests
        loaded = registry.load("synthetic-pfr")
        assert loaded.transform(harness.X_test).shape[1] == 2

    def test_register_from_ledger_requires_ledger(self, tmp_path):
        from repro.serving import ModelRegistry

        registry = ModelRegistry(tmp_path)
        with pytest.raises(ValidationError, match="run ledger"):
            registry.register_from_ledger(None, "0" * 64, "x")


class TestLedgerEntryShape:
    def test_entry_fields(self, tmp_path):
        entry = RunLedger(tmp_path).put(_task(), {"x": 1})
        assert isinstance(entry, LedgerEntry)
        assert entry.library_version
        assert entry.created_at > 0
        assert entry.path.endswith(f"{entry.digest}.json")


class TestLineage:
    """parent links: put validation, lineage walks, gc/verify awareness."""

    def _chain(self, tmp_path, depth=3):
        ledger = RunLedger(tmp_path)
        entries = []
        parent = None
        for i in range(depth):
            entry = ledger.put(
                _task(kind="lifecycle_model", step=i), {"i": i}, parent=parent
            )
            entries.append(entry)
            parent = entry.digest
        return ledger, entries

    def test_put_records_parent(self, tmp_path):
        ledger, entries = self._chain(tmp_path, depth=2)
        root, child = entries
        assert root.parent is None
        assert child.parent == root.digest
        # Round-trips through get().
        assert ledger.get(child.digest).parent == root.digest

    def test_put_rejects_bad_parent(self, tmp_path):
        ledger = RunLedger(tmp_path)
        with pytest.raises(ValidationError, match="parent"):
            ledger.put(_task(), {}, parent="not-a-digest")
        digest = task_digest(_task(x=1))
        with pytest.raises(ValidationError, match="own parent"):
            ledger.put(_task(x=1), {}, parent=digest)

    def test_children_and_lineage_walk(self, tmp_path):
        ledger, entries = self._chain(tmp_path, depth=3)
        root, mid, leaf = entries
        children = [e.digest for e in ledger.ls() if e.parent == root.digest]
        assert children == [mid.digest]
        chain = ledger.lineage(leaf.digest)  # root first
        assert [e.digest for e in chain] == [
            root.digest, mid.digest, leaf.digest
        ]
        # A root's lineage is itself.
        assert [e.digest for e in ledger.lineage(root.digest)] == [root.digest]

    def test_lineage_stops_at_dangling_parent(self, tmp_path):
        import os

        ledger, entries = self._chain(tmp_path, depth=2)
        root, child = entries
        os.unlink(root.path)
        chain = ledger.lineage(child.digest)
        assert [e.digest for e in chain] == [child.digest]

    def test_gc_never_severs_live_lineage(self, tmp_path):
        ledger = RunLedger(tmp_path)
        root = ledger.put(_task(kind="lifecycle_model", step=0), {})
        ledger.put(
            _task(kind="other", step=1), {}, parent=root.digest
        )
        # The filter selects the root, but its surviving child links to
        # it: the root must be kept and reported, not removed.
        report = ledger.gc(kind="lifecycle_model")
        assert report["removed"] == []
        assert report["kept_parents"] == [root.digest]
        assert ledger.contains(root.digest)
        # With the whole subtree selected, parent and child go together.
        report = ledger.gc(kind="lifecycle_model")  # child is kind="other"
        assert ledger.contains(root.digest)
        full = RunLedger(tmp_path / "full")
        a = full.put(_task(kind="lifecycle_model", step=0), {})
        full.put(_task(kind="lifecycle_model", step=1), {}, parent=a.digest)
        report = full.gc(kind="lifecycle_model")
        assert len(report["removed"]) == 2 and report["kept_parents"] == []

    def test_verify_flags_dangling_parent(self, tmp_path):
        import os

        ledger, entries = self._chain(tmp_path, depth=2)
        root, child = entries
        assert ledger.verify()["problems"] == []
        os.unlink(root.path)
        problems = ledger.verify()["problems"]
        assert len(problems) == 1
        assert problems[0]["digest"] == child.digest
        assert "dangling parent" in problems[0]["error"]
