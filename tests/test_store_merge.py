"""Tests for repro.store.merge — ledger union for scale-out sweeps.

Covers the tentpole guarantees (idempotent digest-keyed union, conflict
detection, atomic model-blob travel, lineage survival) and the edge cases
the distributed workflow meets in practice: merging a store into itself,
torn/tmp files in a source, and dangling-parent entries surfacing in a
post-merge ``verify``.
"""

import json

import numpy as np
import pytest

from repro import PFR
from repro.exceptions import ValidationError
from repro.graphs import knn_graph
from repro.store import MergeReport, RunLedger, merge_stores


def _task(i, **extra):
    return {"kind": "method_result", "method": "pfr", "i": i, **extra}


def _fitted_pfr():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    WF = knn_graph(X, n_neighbors=3).toarray()
    return PFR(n_components=2, gamma=0.5).fit(X, WF)


@pytest.fixture
def stores(tmp_path):
    return RunLedger(tmp_path / "dest"), RunLedger(tmp_path / "src")


class TestBasicUnion:
    def test_disjoint_union(self, stores):
        dest, src = stores
        dest.put(_task(1), {"x": 1})
        src.put(_task(2), {"x": 2})
        src.put(_task(3), {"x": 3})
        report = merge_stores(dest, src)
        assert report.n_copied == 2
        assert report.n_deduped == 0
        assert not report.conflicts
        assert len(dest.ls()) == 3
        assert dest.verify()["problems"] == []

    def test_shared_entries_dedupe(self, stores):
        dest, src = stores
        shared_entry = src.put(_task(1), {"x": 1})
        dest.put(_task(1), {"x": 1})
        src.put(_task(2), {"x": 2})
        report = merge_stores(dest, src)
        assert report.n_copied == 1
        assert report.deduped == [shared_entry.digest]
        assert report.dedupe_rate == 0.5

    def test_idempotent(self, stores):
        dest, src = stores
        src.put(_task(1), {"x": 1})
        src.put(_task(2), {"x": 2})
        first = merge_stores(dest, src)
        second = merge_stores(dest, src)
        assert first.n_copied == 2
        assert second.n_copied == 0
        assert sorted(second.deduped) == sorted(first.copied)
        assert dest.verify()["problems"] == []

    def test_copied_entry_bytes_identical(self, stores):
        # Verbatim byte copy: created_at, parent, everything survives, so
        # a merged store re-verifies and re-reads exactly like the source.
        dest, src = stores
        entry = src.put(_task(1), {"x": 1.5})
        merge_stores(dest, src)
        src_bytes = (src.root / "objects").joinpath(
            entry.digest[:2], f"{entry.digest}.json"
        ).read_bytes()
        dest_bytes = (dest.root / "objects").joinpath(
            entry.digest[:2], f"{entry.digest}.json"
        ).read_bytes()
        assert src_bytes == dest_bytes

    def test_multiple_sources_one_call(self, tmp_path):
        dest = RunLedger(tmp_path / "dest")
        a = RunLedger(tmp_path / "a")
        b = RunLedger(tmp_path / "b")
        a.put(_task(1), {"x": 1})
        b.put(_task(2), {"x": 2})
        b.put(_task(1), {"x": 1})  # shared with a
        report = merge_stores(dest, a, b)
        assert report.n_copied == 2
        assert report.n_deduped == 1
        assert report.sources == [str(a.root), str(b.root)]

    def test_dry_run_writes_nothing(self, stores):
        dest, src = stores
        src.put(_task(1), {"x": 1})
        report = merge_stores(dest, src, dry_run=True)
        assert report.dry_run
        assert report.n_copied == 1
        assert dest.ls() == []

    def test_empty_source_is_fine(self, stores):
        dest, src = stores
        dest.put(_task(1), {"x": 1})
        report = merge_stores(dest, src)
        assert report.n_copied == 0
        assert len(dest.ls()) == 1

    def test_requires_dest_and_sources(self, stores):
        dest, src = stores
        with pytest.raises(ValidationError, match="destination"):
            merge_stores(None, src)
        with pytest.raises(ValidationError, match="at least one source"):
            merge_stores(dest)
        with pytest.raises(ValidationError, match="got None"):
            merge_stores(dest, None)

    def test_accepts_paths_and_ledgers(self, tmp_path):
        src = RunLedger(tmp_path / "src")
        src.put(_task(1), {"x": 1})
        report = merge_stores(str(tmp_path / "dest"), str(src.root))
        assert isinstance(report, MergeReport)
        assert report.n_copied == 1
        assert RunLedger(tmp_path / "dest").contains(src.ls()[0].digest)


class TestSelfMerge:
    def test_self_merge_is_noop(self, tmp_path):
        ledger = RunLedger(tmp_path / "store")
        ledger.put(_task(1), {"x": 1})
        report = merge_stores(ledger, ledger)
        assert report.n_copied == 0
        assert report.n_deduped == 0
        assert report.self_merges == [str(ledger.root)]
        assert len(ledger.ls()) == 1

    def test_self_merge_by_equivalent_path(self, tmp_path):
        # Same directory reached through a different spelling still
        # counts as self.
        ledger = RunLedger(tmp_path / "store")
        ledger.put(_task(1), {"x": 1})
        alias = tmp_path / "." / "store"
        report = merge_stores(ledger, alias)
        assert report.self_merges == [str(RunLedger(alias).root)]
        assert report.n_copied == 0


class TestConflicts:
    def test_differing_payload_reported_dest_kept(self, stores):
        dest, src = stores
        entry = dest.put(_task(1), {"x": 1})
        # Forge a source entry under the same digest with a different
        # payload — same task, so the filename/digest check passes, but
        # the content disagrees (what non-deterministic compute or a
        # silently corrupted store would produce).
        src_entry = src.put(_task(1), {"x": 1})
        path = src.root / "objects" / entry.digest[:2] / f"{entry.digest}.json"
        data = json.loads(path.read_text())
        data["payload"] = {"x": 999}
        path.write_text(json.dumps(data))
        report = merge_stores(dest, src)
        assert report.n_conflicts == 1
        assert report.conflicts[0]["digest"] == src_entry.digest
        assert report.conflicts[0]["source"] == str(src.root)
        assert dest.get(entry.digest).payload == {"x": 1}

    def test_differing_blas_metadata_dedupes(self, stores):
        # The writer's BLAS pool sizes are provenance, not content: the
        # same payload written under other pools (or before the field
        # existed) is the same result.
        dest, src = stores
        entry = dest.put(_task(1), {"x": 1})
        src.put(_task(1), {"x": 1})
        fresh = src.put(_task(2), {"x": 2})
        for digest, blas in ((entry.digest, {"numpy": 7, "scipy": 7}),
                             (fresh.digest, None)):
            path = src.root / "objects" / digest[:2] / f"{digest}.json"
            data = json.loads(path.read_text())
            if blas is None:
                del data["blas"]
            else:
                data["blas"] = blas
            path.write_text(json.dumps(data))
        report = merge_stores(dest, src)
        assert report.n_conflicts == 0
        assert len(report.deduped) == 1 and len(report.copied) == 1
        assert dest.get(entry.digest).blas == entry.blas

    def test_torn_dest_entry_healed_by_source(self, stores):
        dest, src = stores
        entry = src.put(_task(1), {"x": 1})
        dest_path = (
            dest.root / "objects" / entry.digest[:2] / f"{entry.digest}.json"
        )
        dest_path.parent.mkdir(parents=True)
        dest_path.write_text('{"digest": truncated')
        report = merge_stores(dest, src)
        assert report.copied == [entry.digest]
        assert dest.get(entry.digest).payload == {"x": 1}
        assert dest.verify()["problems"] == []


class TestTornSources:
    def test_tmp_files_skipped_not_copied(self, stores):
        dest, src = stores
        src.put(_task(1), {"x": 1})
        tmp = src.root / "objects" / "ab" / ".deadbeef.json.tmp"
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text("torn writer leftovers")
        report = merge_stores(dest, src)
        assert report.n_copied == 1
        assert any("temp file" in item["reason"] for item in report.skipped)
        assert not list((dest.root / "objects").glob("**/*.tmp"))
        assert not list((dest.root / "objects").glob("**/.*.tmp"))
        assert dest.verify()["problems"] == []

    def test_unreadable_json_skipped(self, stores):
        dest, src = stores
        src.put(_task(1), {"x": 1})
        garbage = src.root / "objects" / "ab" / ("c" * 64 + ".json")
        garbage.parent.mkdir(parents=True, exist_ok=True)
        garbage.write_text('{"digest": "c...', encoding="utf-8")
        report = merge_stores(dest, src)
        assert report.n_copied == 1
        assert any(
            "unreadable" in item["reason"] for item in report.skipped
        )
        assert dest.verify()["problems"] == []

    def test_digest_filename_mismatch_skipped(self, stores):
        dest, src = stores
        entry = src.put(_task(1), {"x": 1})
        # Rename the object file so the filename no longer matches the
        # stored digest (a hand-tampered or mis-copied store).
        bogus = "f" * 64
        target = src.root / "objects" / bogus[:2] / f"{bogus}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        (src.root / "objects" / entry.digest[:2] / f"{entry.digest}.json").rename(
            target
        )
        report = merge_stores(dest, src)
        assert report.n_copied == 0
        assert any(
            "mismatches filename" in item["reason"] for item in report.skipped
        )


class TestModelsAndLineage:
    def test_model_blob_travels_with_entry(self, stores):
        dest, src = stores
        model = _fitted_pfr()
        entry = src.put(_task(1), {"x": 1}, model=model)
        report = merge_stores(dest, src)
        assert report.models_copied == [entry.digest]
        assert dest.model_path(entry.digest).is_file()
        loaded = dest.load_model(entry.digest)
        np.testing.assert_array_equal(loaded.components_, model.components_)
        assert dest.verify()["problems"] == []

    def test_missing_source_blob_reported(self, stores):
        dest, src = stores
        entry = src.put(_task(1), {"x": 1}, model=_fitted_pfr())
        src.model_path(entry.digest).unlink()
        report = merge_stores(dest, src)
        assert report.missing_models == [entry.digest]
        assert entry.digest in report.copied
        # The damage is visible where it belongs: post-merge verify.
        problems = dest.verify()["problems"]
        assert any("model blob" in p["error"] for p in problems)

    def test_parent_lineage_survives_union(self, stores):
        dest, src = stores
        root_entry = src.put(_task(1), {"x": 1})
        child = src.put(_task(2), {"x": 2}, parent=root_entry.digest)
        merge_stores(dest, src)
        chain = dest.lineage(child.digest)
        assert [e.digest for e in chain] == [root_entry.digest, child.digest]
        assert dest.verify()["problems"] == []

    def test_lineage_split_across_sources(self, tmp_path):
        # Parent computed on one shard, child refreshed on another: the
        # union must reconnect them regardless of merge order.
        dest = RunLedger(tmp_path / "dest")
        a = RunLedger(tmp_path / "a")
        b = RunLedger(tmp_path / "b")
        root_entry = a.put(_task(1), {"x": 1})
        # The child references the parent by digest only; store it in b.
        b.put(_task(2), {"x": 2}, parent=root_entry.digest)
        merge_stores(dest, b, a)  # child's source merged first
        assert dest.verify()["problems"] == []
        child_digest = [e.digest for e in dest.ls() if e.parent][0]
        assert [e.digest for e in dest.lineage(child_digest)][0] == (
            root_entry.digest
        )

    def test_dangling_parent_flagged_by_post_merge_verify(self, stores):
        dest, src = stores
        src.put(_task(2), {"x": 2}, parent="a" * 64)
        report = merge_stores(dest, src)
        assert report.n_copied == 1
        problems = dest.verify()["problems"]
        assert any("dangling parent" in p["error"] for p in problems)


class TestObservability:
    def test_merge_counters_recorded(self, stores):
        from repro.obs import get_registry

        dest, src = stores
        src.put(_task(1), {"x": 1})
        before = get_registry().counter_value(
            "merge.copied", dest=str(dest.root)
        )
        merge_stores(dest, src)
        merge_stores(dest, src)
        registry = get_registry()
        assert registry.counter_value(
            "merge.copied", dest=str(dest.root)
        ) == before + 1
        assert registry.counter_value(
            "merge.deduped", dest=str(dest.root)
        ) >= 1

    def test_report_to_json_shape(self, stores):
        dest, src = stores
        src.put(_task(1), {"x": 1})
        payload = merge_stores(dest, src).to_json()
        assert payload["copied"] == 1
        assert payload["dest"] == str(dest.root)
        json.dumps(payload)  # must be JSON-serializable as-is
