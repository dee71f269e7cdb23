"""The job journal: durable per-job checkpoint state.

A :class:`JobJournal` maps string keys — the job engine keys entries by
``(circuit_hash, config_hash, method, input-probability hash)``, the
same identity as the artifact cache, so a cancelled-then-resubmitted or
crashed-and-retried job finds its own progress — to JSON-safe payloads
(the :class:`~repro.sampling.montecarlo.SamplingState` of a sampled
run, persisted once per Monte-Carlo block).

With a ``path`` the journal is file-backed: every mutation rewrites the
file atomically (write-temp-then-rename), so a restarted ``protest
serve --journal <path>`` resumes interrupted sampling from the last
completed block instead of restarting it.  Without a path it is a
process-local store — still enough for worker-crash retries inside one
service lifetime.

A journal that cannot be read (corrupt JSON, wrong shape) is treated as
empty rather than fatal: losing a checkpoint costs recomputation, never
availability.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional

from repro.errors import ResilienceError
from repro.resilience.atomic import atomic_write

__all__ = ["JobJournal"]


class JobJournal:
    """Thread-safe key → payload store with optional atomic file backing."""

    def __init__(self, path: "str | os.PathLike | None" = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._lock = threading.Lock()
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._writes = 0
        if self.path is not None:
            self._entries = self._load(self.path)

    @staticmethod
    def _load(path: str) -> Dict[str, Dict[str, Any]]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return {}
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # A torn or corrupt journal costs the checkpoints, not the
            # service: start empty.
            return {}
        if not isinstance(data, dict):
            return {}
        return {
            key: value
            for key, value in data.items()
            if isinstance(key, str) and isinstance(value, dict)
        }

    def _sync_locked(self) -> None:
        if self.path is None:
            return
        try:
            atomic_write(self.path, lambda handle: json.dump(
                self._entries, handle, sort_keys=True
            ))
        except OSError as error:
            raise ResilienceError(
                f"cannot persist journal to {self.path!r}: {error}"
            ) from error
        self._writes += 1

    # -- store API -----------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            entry = self._entries.get(key)
            return dict(entry) if entry is not None else None

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        if not isinstance(payload, dict):
            raise ResilienceError(
                f"journal payloads must be dicts, got {type(payload).__name__}"
            )
        with self._lock:
            self._entries[key] = dict(payload)
            self._sync_locked()

    def discard(self, key: str) -> bool:
        """Drop an entry (a finished job retires its checkpoint)."""
        with self._lock:
            existed = self._entries.pop(key, None) is not None
            if existed:
                self._sync_locked()
            return existed

    def sync(self) -> None:
        """Force a rewrite of the backing file (drain/shutdown path)."""
        with self._lock:
            self._sync_locked()

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries
