"""Union content-addressed run ledgers: the scale-out merge step.

A sharded sweep runs each shard on its own machine against its own
:class:`~repro.store.RunLedger`; :func:`merge_stores` unions those
ledgers back into one. Because every entry is keyed by the SHA-256 of its
canonical task descriptor, the union needs no coordination and no
ordering:

* **idempotent** — an entry already in the destination with the same
  content is a dedupe, not a copy, so re-merging a source (or merging two
  sources that shared cells) changes nothing;
* **conflict-detecting** — a digest present on both sides with a
  *different* task or payload can only mean non-deterministic compute or
  a corrupted store; it is reported (the destination's entry is kept,
  never silently overwritten);
* **atomic** — entries and model blobs are copied byte-for-byte through
  the same temp-file + ``os.replace`` discipline as
  :meth:`~repro.store.RunLedger.put`, blob before entry, so a reader of
  the destination never observes a torn or model-less entry;
* **lineage-preserving** — ``parent`` links ride inside the entry bytes,
  so refresh lineages survive the union (and a source's dangling parent
  is visible to a post-merge ``verify``).

Torn source files — stray ``.*.tmp`` writers and unreadable JSON — are
skipped and reported, never copied: merging must not propagate damage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import ValidationError
from ..io import atomic_write
from ..obs.metrics import get_registry
from ..obs.trace import span
from .digests import canonical_json
from .ledger import _MODELS, _OBJECTS, RunLedger, coerce_ledger

__all__ = ["MergeReport", "merge_stores"]


@dataclass(frozen=True)
class MergeReport:
    """What one :func:`merge_stores` call did (or, dry-run, would do).

    Attributes
    ----------
    dest:
        Destination ledger root.
    sources:
        Source roots, in merge order (self-merges excluded).
    copied:
        Digests newly copied into the destination.
    deduped:
        Digests already present with identical content (no-ops).
    conflicts:
        ``{"digest", "source", "error"}`` dicts for digest-key collisions
        whose task/payload differ from the destination's entry — the
        destination's version is kept.
    skipped:
        ``{"path", "reason"}`` dicts for source files that were not
        mergeable (torn temp files, unreadable JSON, digest/filename
        mismatches).
    models_copied:
        Digests whose model blob was copied alongside the entry.
    missing_models:
        Digests whose entry claims a model blob the source does not have
        (the entry is still copied; ``verify`` on the destination flags
        it).
    self_merges:
        Source roots skipped because they *are* the destination.
    dry_run:
        True when nothing was written.
    """

    dest: str
    sources: list = field(default_factory=list)
    copied: list = field(default_factory=list)
    deduped: list = field(default_factory=list)
    conflicts: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    models_copied: list = field(default_factory=list)
    missing_models: list = field(default_factory=list)
    self_merges: list = field(default_factory=list)
    dry_run: bool = False

    @property
    def n_copied(self) -> int:
        return len(self.copied)

    @property
    def n_deduped(self) -> int:
        return len(self.deduped)

    @property
    def n_conflicts(self) -> int:
        return len(self.conflicts)

    @property
    def dedupe_rate(self) -> float:
        """Fraction of mergeable source entries already in the destination."""
        total = len(self.copied) + len(self.deduped)
        return len(self.deduped) / total if total else 0.0

    def to_json(self) -> dict:
        """Machine-readable summary (what ``--json`` prints)."""
        return {
            "dest": self.dest,
            "sources": list(self.sources),
            "copied": len(self.copied),
            "deduped": len(self.deduped),
            "conflicts": list(self.conflicts),
            "skipped": list(self.skipped),
            "models_copied": len(self.models_copied),
            "missing_models": list(self.missing_models),
            "self_merges": list(self.self_merges),
            "dedupe_rate": self.dedupe_rate,
            "dry_run": self.dry_run,
        }


def _entry_content_key(data: dict) -> str:
    """The merge-equality view of an entry: everything that *means* something.

    ``created_at`` is wall-clock noise and differs between two honest
    writers of the same cell, and ``blas`` (the writer's BLAS pool sizes)
    is provenance: two writers whose payloads agree wrote the same result
    whatever their pools. Everything else — task, payload, kind, model
    flag, parent link, library version — must agree for two entries under
    one digest to be the same result.
    """
    return canonical_json(
        {
            "kind": data.get("kind"),
            "task": data.get("task"),
            "payload": data.get("payload"),
            "has_model": data.get("has_model", False),
            "parent": data.get("parent"),
            "library_version": data.get("library_version"),
        }
    )


def _same_store(a: Path, b: Path) -> bool:
    """Whether two roots name the same directory on disk."""
    try:
        return a.resolve() == b.resolve()
    except OSError:  # pragma: no cover - unresolvable exotic paths
        return a == b


def merge_stores(dest, *sources, dry_run: bool = False) -> MergeReport:
    """Union one or more source ledgers into ``dest``; returns a report.

    Arguments are ledger directories or :class:`~repro.store.RunLedger`
    instances. See the module docstring for the guarantees; in short:
    identical digests dedupe, differing payloads under one digest are
    reported as conflicts (destination wins), torn source files are
    skipped, model blobs travel with their entries, and the whole
    operation is idempotent. ``dry_run`` reports without writing.
    """
    dest_ledger = coerce_ledger(dest)
    if dest_ledger is None:
        raise ValidationError("merge needs a destination store; got None")
    if not sources:
        raise ValidationError("merge needs at least one source store")

    report = MergeReport(dest=str(dest_ledger.root), dry_run=dry_run)
    registry = get_registry()
    root_label = str(dest_ledger.root)
    with span("store.merge", dest=root_label, n_sources=len(sources)):
        for source in sources:
            src_ledger = coerce_ledger(source)
            if src_ledger is None:
                raise ValidationError(
                    "merge sources must be store paths or RunLedgers; got None"
                )
            if _same_store(src_ledger.root, dest_ledger.root):
                # Merging a store into itself is definitionally a no-op;
                # walking it would at best dedupe every entry against
                # itself and at worst copy entries over their own open
                # files.
                report.self_merges.append(str(src_ledger.root))
                continue
            report.sources.append(str(src_ledger.root))
            _merge_one(src_ledger, dest_ledger, report, dry_run=dry_run)
    registry.inc("merge.copied", len(report.copied), dest=root_label)
    registry.inc("merge.deduped", len(report.deduped), dest=root_label)
    registry.inc("merge.conflicts", len(report.conflicts), dest=root_label)
    registry.inc("merge.skipped", len(report.skipped), dest=root_label)
    registry.inc(
        "merge.models_copied", len(report.models_copied), dest=root_label
    )
    return report


def _merge_one(
    src: RunLedger, dest: RunLedger, report: MergeReport, *, dry_run: bool
) -> None:
    objects = src.root / _OBJECTS
    if not objects.is_dir():
        return

    # Anything that is not a committed object file is a crashed writer's
    # leftover; report it so the operator knows the source was dirty.
    for tmp in sorted((src.root).glob(f"{_OBJECTS}/**/.*.tmp")) + sorted(
        (src.root).glob(f"{_MODELS}/**/.*.tmp")
    ):
        report.skipped.append(
            {"path": str(tmp), "reason": "stray temp file (torn writer)"}
        )

    for path in sorted(objects.glob("??/*.json")):
        digest = path.stem
        try:
            raw = path.read_text(encoding="utf-8")
            data = json.loads(raw)
        except (OSError, json.JSONDecodeError) as exc:
            report.skipped.append(
                {"path": str(path), "reason": f"unreadable entry: {exc}"}
            )
            continue
        if not isinstance(data, dict) or data.get("digest") != digest:
            report.skipped.append(
                {
                    "path": str(path),
                    "reason": "stored digest mismatches filename",
                }
            )
            continue

        dest_path = dest._object_path(digest)
        if dest_path.is_file():
            try:
                dest_data = json.loads(dest_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                # The destination's copy is torn; the source's is whole.
                # Treat it as absent and let the healthy bytes win.
                dest_data = None
            if dest_data is not None:
                if _entry_content_key(dest_data) == _entry_content_key(data):
                    report.deduped.append(digest)
                else:
                    report.conflicts.append(
                        {
                            "digest": digest,
                            "source": str(src.root),
                            "error": (
                                "digest collision with differing content; "
                                "kept the destination's entry"
                            ),
                        }
                    )
                continue

        # Model blob before entry — the same ordering RunLedger.put uses —
        # so a concurrent reader of dest never sees an entry whose claimed
        # blob is not there yet.
        if data.get("has_model"):
            src_blob = src.model_path(digest)
            if src_blob.is_file():
                if not dry_run:
                    blob_bytes = src_blob.read_bytes()
                    dest_blob = dest.model_path(digest)
                    dest_blob.parent.mkdir(parents=True, exist_ok=True)
                    atomic_write(dest_blob, lambda h: h.write(blob_bytes))
                report.models_copied.append(digest)
            else:
                report.missing_models.append(digest)
        if not dry_run:
            dest_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(dest_path, lambda h: h.write(raw), mode="w")
        report.copied.append(digest)
