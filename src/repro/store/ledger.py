"""Content-addressed, on-disk run ledger.

The ledger is the persistence substrate of every sweep, tuning grid and
cross-seed repetition: each completed cell (one
:class:`~repro.experiments.MethodResult`, one tuned grid point, one fitted
model artifact) is stored under the SHA-256 digest of its canonical task
descriptor (:func:`~repro.store.digests.task_digest`). Because the digest
is a pure function of the task, the ledger needs no coordination at all:

* **Resume is free** — an interrupted run re-derives the same digests and
  skips every cell already on disk.
* **Incremental extension is free** — adding one γ to a finished grid
  produces new digests only for the new cells.
* **Concurrent writers are safe** — two processes computing the same
  digest write byte-identical content; writes go to a temp file in the
  same directory followed by ``os.replace``, so readers never observe a
  torn entry and the losing writer's replace is a no-op.

Layout::

    <root>/
        objects/<aa>/<digest>.json   # entry: task + payload (+ metadata)
        models/<aa>/<digest>.npz     # optional fitted-estimator blob
                                     # (written by repro.io.save_model)

Entries are self-describing — there is no index file to corrupt or lock;
``ls`` walks the object tree, ``verify`` re-derives each digest from the
stored task and flags mismatches, and ``gc`` removes stray temp files,
orphaned model blobs, and (with filters) whole entries.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .._version import __version__
from ..exceptions import ValidationError
from ..io import atomic_write, load_model, read_header, save_model
from ..obs.metrics import get_registry
from .digests import task_digest

__all__ = ["LedgerEntry", "RunLedger", "default_store_root"]

_OBJECTS = "objects"
_MODELS = "models"


def default_store_root() -> Path:
    """Ledger location: ``$REPRO_STORE`` or ``~/.repro/store``."""
    root = os.environ.get("REPRO_STORE")
    if root:
        return Path(root)
    return Path.home() / ".repro" / "store"


@dataclass(frozen=True)
class LedgerEntry:
    """One persisted run cell, as stored under its content address.

    ``parent`` links an incremental refit to the entry it was warm-started
    from (``None`` for root fits) — the refresh lineage the lifecycle
    layer records and :meth:`RunLedger.lineage` walks.
    """

    digest: str
    kind: str
    task: dict = field(repr=False)
    payload: dict = field(repr=False)
    created_at: float = 0.0
    library_version: str = ""
    has_model: bool = False
    path: str = ""
    parent: str | None = None


class RunLedger:
    """Content-addressed run ledger rooted at a directory.

    Instances are cheap (a path plus nothing else) and picklable, so a
    ledger travels to worker processes with the task state and every
    worker writes through to the same store. All operations are safe
    under concurrent readers and writers — see the module docstring.
    """

    def __init__(self, root):
        self.root = Path(root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({str(self.root)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, RunLedger) and self.root == other.root

    # -------------------------------------------------------- observability
    #
    # Every lookup/write records into the process-global metrics registry,
    # labeled by the ledger root so two ledgers in one process keep
    # separate series. Counters live in the registry (not on the
    # instance): a RunLedger is pickled to worker processes, and in-object
    # counters would silently reset on every fan-out.

    def _account_lookup(self, hit: bool) -> None:
        name = "ledger.hits" if hit else "ledger.misses"
        get_registry().inc(name, root=str(self.root))

    def stats(self) -> dict:
        """Hit/miss and latency accounting for *this process's* use of
        this ledger root.

        Returns ``hits``/``misses``/``lookups``/``hit_rate`` (only cache
        decisions count as lookups: :meth:`contains` and
        :meth:`get_task`; a plain :meth:`get` by digest, such as the cell
        executor's read-back, counts under ``gets`` alone), ``gets``,
        ``puts``, ``gc_runs``, and ``read_seconds``/``write_seconds``
        histogram summaries (count/sum/mean/p50/p90/p99). Counters are
        per-process: worker processes accumulate their own (visible in a
        JSONL trace via their ``metrics`` records), so a parent asking
        after a fan-out sees the lookups *it* performed — which is exactly
        what the pre-dispatch skip logic and the CI cache-hit assertion
        measure.
        """
        registry = get_registry()
        root = str(self.root)
        hits = registry.counter_value("ledger.hits", root=root)
        misses = registry.counter_value("ledger.misses", root=root)
        lookups = hits + misses
        return {
            "hits": int(hits),
            "misses": int(misses),
            "lookups": int(lookups),
            "hit_rate": hits / lookups if lookups else 0.0,
            "gets": int(registry.counter_value("ledger.gets", root=root)),
            "puts": int(registry.counter_value("ledger.puts", root=root)),
            "gc_runs": int(registry.counter_value("ledger.gc_runs", root=root)),
            "read_seconds": registry.histogram_summary(
                "ledger.read_seconds", root=root
            ),
            "write_seconds": registry.histogram_summary(
                "ledger.write_seconds", root=root
            ),
        }

    # ------------------------------------------------------------- paths
    def _object_path(self, digest: str) -> Path:
        return self.root / _OBJECTS / digest[:2] / f"{digest}.json"

    def model_path(self, digest: str) -> Path:
        """Path of the model blob attached to ``digest`` (may not exist)."""
        return self.root / _MODELS / digest[:2] / f"{digest}.npz"

    # --------------------------------------------------------- write API
    def put(
        self, task: dict, payload: dict, *, model=None, parent: str | None = None
    ) -> LedgerEntry:
        """Persist one completed cell; returns its :class:`LedgerEntry`.

        ``task`` is the canonical descriptor (must carry ``"kind"``) that
        keys the entry; ``payload`` is the JSON-safe result. ``model``, if
        given, is a fitted estimator persisted alongside the entry through
        :func:`repro.io.save_model` — the blob a
        :meth:`~repro.serving.ModelRegistry.register_from_ledger` call
        promotes into serving. ``parent``, if given, is the digest of the
        entry this cell was incrementally derived from (a warm-started
        landmark refresh); it is stored as entry metadata — *not* part of
        the task — so the content address stays a pure function of the
        task while ``verify``/``gc`` still see the lineage.
        """
        if not isinstance(payload, dict):
            raise ValidationError(
                f"ledger payloads must be dicts; got {type(payload).__name__}"
            )
        if parent is not None and not (
            isinstance(parent, str) and len(parent) == 64
        ):
            raise ValidationError(
                f"parent must be a 64-hex entry digest; got {parent!r}"
            )
        start = time.perf_counter()
        digest = task_digest(task)
        if parent == digest:
            raise ValidationError("an entry cannot be its own parent")
        path = self._object_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        if model is not None:
            model_file = self.model_path(digest)
            model_file.parent.mkdir(parents=True, exist_ok=True)
            save_model(model, model_file)
        entry = {
            "digest": digest,
            "kind": str(task["kind"]),
            "task": task,
            "payload": payload,
            "created_at": time.time(),
            "library_version": __version__,
            "has_model": model is not None,
        }
        if parent is not None:
            entry["parent"] = parent
        text = json.dumps(entry, sort_keys=True, allow_nan=True) + "\n"
        atomic_write(path, lambda handle: handle.write(text), mode="w")
        registry = get_registry()
        root = str(self.root)
        registry.inc("ledger.puts", root=root)
        registry.observe(
            "ledger.write_seconds", time.perf_counter() - start, root=root
        )
        return self._entry_from_dict(entry, path)

    # ---------------------------------------------------------- read API
    def contains(self, digest: str) -> bool:
        """Whether an entry for ``digest`` is on disk."""
        hit = self._object_path(digest).is_file()
        self._account_lookup(hit)
        return hit

    def get(self, digest: str) -> LedgerEntry | None:
        """The entry stored under ``digest``, or ``None`` if absent."""
        path = self._object_path(digest)
        start = time.perf_counter()
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            get_registry().inc("ledger.gets", root=str(self.root))
            return None
        registry = get_registry()
        root = str(self.root)
        registry.inc("ledger.gets", root=root)
        registry.observe(
            "ledger.read_seconds", time.perf_counter() - start, root=root
        )
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"corrupt ledger entry {path}: {exc}; "
                "run `repro store verify` / `repro store gc`"
            ) from exc
        return self._entry_from_dict(data, path)

    def get_task(self, task: dict) -> LedgerEntry | None:
        """``get(task_digest(task))``, counted as a cache lookup."""
        entry = self.get(task_digest(task))
        self._account_lookup(entry is not None)
        return entry

    def load_model(self, digest: str):
        """Deserialize the fitted estimator attached to ``digest``."""
        entry = self.get(digest)
        if entry is None:
            raise ValidationError(f"no ledger entry for digest {digest!r}")
        if not entry.has_model:
            raise ValidationError(
                f"ledger entry {digest[:12]}… ({entry.kind}) carries no "
                "model artifact"
            )
        return load_model(self.model_path(digest))

    def ls(self, *, kind: str | None = None) -> list[LedgerEntry]:
        """Every readable entry (optionally filtered by kind), oldest first.

        Corrupt object files are skipped — they are unreadable anyway, and
        raising here would make the maintenance commands (``gc`` by kind,
        ``repro store ls``) unusable on the very ledgers that need them.
        :meth:`verify` reports them; :meth:`gc` sweeps them.
        """
        entries = []
        objects = self.root / _OBJECTS
        if not objects.is_dir():
            return []
        for path in sorted(objects.glob("??/*.json")):
            try:
                entry = self.get(path.stem)
            except ValidationError:
                continue
            if entry is None:  # pragma: no cover - racing gc
                continue
            if kind is not None and entry.kind != kind:
                continue
            entries.append(entry)
        entries.sort(key=lambda e: (e.created_at, e.digest))
        return entries

    def children(self, digest: str) -> list[LedgerEntry]:
        """Entries whose ``parent`` link points at ``digest``, oldest first."""
        return [entry for entry in self.ls() if entry.parent == digest]

    def lineage(self, digest: str) -> list[LedgerEntry]:
        """The refresh chain ending at ``digest``, root first.

        Walks ``parent`` links until a root (no parent) or a dangling link
        (parent entry gone — ``verify`` reports those) is reached. Cycles
        are impossible on honestly written ledgers (a parent must exist
        before a child references it) but a visited-set guard keeps
        hand-edited stores from hanging the walk.
        """
        chain: list[LedgerEntry] = []
        seen: set[str] = set()
        current: str | None = digest
        while current is not None and current not in seen:
            seen.add(current)
            entry = self.get(current)
            if entry is None:
                break
            chain.append(entry)
            current = entry.parent
        chain.reverse()
        return chain

    # -------------------------------------------------------- maintenance
    def gc(
        self,
        *,
        kind: str | None = None,
        older_than: float | None = None,
        dry_run: bool = False,
        orphan_grace: float = 60.0,
    ) -> dict:
        """Collect garbage; returns per-category lists of what was removed.

        Always sweeps three kinds of debris: stray ``.tmp`` files (crashed
        writers), *corrupt* object files (unreadable JSON — in a
        content-addressed store the content can always be recomputed, so
        garbage bytes have no value; this is the repair path ``verify``
        points at), and model blobs with no matching entry. Blob orphan
        checks skip blobs younger than ``orphan_grace`` seconds —
        :meth:`put` writes the blob *before* the entry, so a concurrent
        writer's fresh blob must not be mistaken for an orphan. Healthy
        entries are removed only when a filter says so: ``kind`` selects a
        payload kind, ``older_than`` an age in seconds (filters compose
        with AND). Entries that surviving children link to as ``parent``
        are never removed (reported under ``kept_parents`` instead), so a
        filter sweep cannot sever a live refresh lineage. ``dry_run``
        reports without touching disk.
        """
        get_registry().inc("ledger.gc_runs", root=str(self.root))
        removed, orphans, tmp_files, corrupt = [], [], [], []
        now = time.time()
        for directory in (self.root / _OBJECTS, self.root / _MODELS):
            if directory.is_dir():
                for tmp in directory.glob("**/.*.tmp"):
                    # The same grace that protects fresh model blobs: a
                    # young .tmp may be a concurrent atomic_write mid-
                    # flight, and unlinking it would crash that writer's
                    # os.replace. Only crashed writers' leftovers age.
                    try:
                        if now - tmp.stat().st_mtime < orphan_grace:
                            continue
                    except OSError:  # pragma: no cover - racing writer
                        continue
                    tmp_files.append(str(tmp))
                    if not dry_run:
                        tmp.unlink(missing_ok=True)
        objects = self.root / _OBJECTS
        if objects.is_dir():
            for path in sorted(objects.glob("??/*.json")):
                try:
                    json.loads(path.read_text(encoding="utf-8"))
                except (json.JSONDecodeError, OSError):
                    corrupt.append(path.stem)
                    if not dry_run:
                        path.unlink(missing_ok=True)
                        self.model_path(path.stem).unlink(missing_ok=True)
        select_entries = kind is not None or older_than is not None
        kept_parents: list[str] = []
        if select_entries:
            everything = self.ls()
            matching = [
                entry
                for entry in everything
                if (kind is None or entry.kind == kind)
                and (
                    older_than is None or now - entry.created_at >= older_than
                )
            ]
            # Lineage protection: an entry that a *surviving* child links
            # to stays — deleting it would leave the child's refresh
            # provenance dangling. (A selected parent whose whole subtree
            # is also selected goes out together with it.)
            doomed = {entry.digest for entry in matching}
            survivors_parents = {
                entry.parent
                for entry in everything
                if entry.parent is not None and entry.digest not in doomed
            }
            for entry in matching:
                if entry.digest in survivors_parents:
                    kept_parents.append(entry.digest)
                    continue
                removed.append(entry.digest)
                if not dry_run:
                    Path(entry.path).unlink(missing_ok=True)
                    self.model_path(entry.digest).unlink(missing_ok=True)
        models = self.root / _MODELS
        if models.is_dir():
            for blob in sorted(models.glob("??/*.npz")):
                if self.contains(blob.stem):
                    continue
                try:
                    age = now - blob.stat().st_mtime
                except OSError:  # pragma: no cover - racing writer
                    continue
                if age < orphan_grace:
                    continue
                orphans.append(blob.stem)
                if not dry_run:
                    blob.unlink(missing_ok=True)
        return {
            "removed": removed,
            "corrupt": corrupt,
            "orphans": orphans,
            "tmp_files": tmp_files,
            "kept_parents": kept_parents,
        }

    def counts(self) -> dict:
        """On-disk inventory: entries per kind, model blobs, corrupt files.

        Unlike :meth:`stats` (this process's hit/miss counters), this
        walks the store itself, so it answers "what is in this ledger?"
        for any process — the ``repro store stats`` subcommand and the
        merge benchmark's dedupe-rate report. Reads bypass :meth:`get` on
        purpose: taking an inventory must not skew the hit-rate counters
        the resume logic is measured by.
        """
        by_kind: dict[str, int] = {}
        entries = 0
        with_model = 0
        corrupt = 0
        objects = self.root / _OBJECTS
        if objects.is_dir():
            for path in sorted(objects.glob("??/*.json")):
                try:
                    data = json.loads(path.read_text(encoding="utf-8"))
                except (json.JSONDecodeError, OSError):
                    corrupt += 1
                    continue
                entries += 1
                kind = str(data.get("kind", "")) if isinstance(data, dict) else ""
                by_kind[kind] = by_kind.get(kind, 0) + 1
                if isinstance(data, dict) and data.get("has_model"):
                    with_model += 1
        models = self.root / _MODELS
        model_blobs = (
            sum(1 for _ in models.glob("??/*.npz")) if models.is_dir() else 0
        )
        return {
            "entries": entries,
            "by_kind": dict(sorted(by_kind.items())),
            "with_model": with_model,
            "model_blobs": model_blobs,
            "corrupt": corrupt,
        }

    def verify(self) -> dict:
        """Integrity check; returns ``{"checked", "problems"}``.

        For every object file: the JSON must parse, the stored digest must
        match the filename, the digest re-derived from the stored task
        must match (content-address integrity), the payload must be a
        dict, and a claimed model blob must exist with a readable header.
        """
        checked = 0
        problems = []
        objects = self.root / _OBJECTS
        if not objects.is_dir():
            return {"checked": 0, "problems": []}
        for path in sorted(objects.glob("??/*.json")):
            checked += 1
            name = path.stem
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, OSError) as exc:
                problems.append({"digest": name, "error": f"unreadable: {exc}"})
                continue
            if not isinstance(data, dict) or not isinstance(
                data.get("payload"), dict
            ):
                problems.append({"digest": name, "error": "malformed entry"})
                continue
            if data.get("digest") != name:
                problems.append(
                    {"digest": name, "error": "stored digest mismatches filename"}
                )
                continue
            try:
                derived = task_digest(data.get("task"))
            except ValidationError as exc:
                problems.append({"digest": name, "error": f"bad task: {exc}"})
                continue
            if derived != name:
                problems.append(
                    {
                        "digest": name,
                        "error": "task does not hash to the stored digest",
                    }
                )
                continue
            if data.get("has_model"):
                try:
                    read_header(self.model_path(name))
                except ValidationError as exc:
                    problems.append(
                        {"digest": name, "error": f"model blob: {exc}"}
                    )
                    continue
            parent = data.get("parent")
            if parent is not None:
                if not (isinstance(parent, str) and len(parent) == 64):
                    problems.append(
                        {"digest": name, "error": f"malformed parent link: {parent!r}"}
                    )
                elif not self._object_path(parent).is_file():
                    problems.append(
                        {
                            "digest": name,
                            "error": (
                                f"dangling parent link {parent[:12]}… "
                                "(refresh lineage broken)"
                            ),
                        }
                    )
        return {"checked": checked, "problems": problems}

    # ------------------------------------------------------------ helpers
    def _entry_from_dict(self, data: dict, path: Path) -> LedgerEntry:
        return LedgerEntry(
            digest=str(data.get("digest", path.stem)),
            kind=str(data.get("kind", "")),
            task=dict(data.get("task", {})),
            payload=dict(data.get("payload", {})),
            created_at=float(data.get("created_at", 0.0)),
            library_version=str(data.get("library_version", "")),
            has_model=bool(data.get("has_model", False)),
            path=str(path),
            parent=(
                str(data["parent"]) if data.get("parent") is not None else None
            ),
        )


def coerce_ledger(store) -> RunLedger | None:
    """Interpret a call site's ``store`` argument.

    ``None`` stays ``None`` (no persistence); a :class:`RunLedger` is used
    as-is; anything path-like opens a ledger at that directory. Anything
    else — and a path that exists but is not a directory — raises a
    :class:`ValidationError` that names the offending value, so a typo'd
    ``--store`` fails at the call site instead of deep inside a worker's
    ``mkdir``.
    """
    if store is None:
        return None
    if isinstance(store, RunLedger):
        return store
    try:
        root = Path(store)
    except TypeError as exc:
        raise ValidationError(
            f"store must be None, a RunLedger, or a directory path; got "
            f"{type(store).__name__}: {store!r}"
        ) from exc
    if root.exists() and not root.is_dir():
        raise ValidationError(
            f"store path {root} exists but is not a directory; a run ledger "
            "needs a directory root"
        )
    return RunLedger(root)
