"""Chunked-accumulation checkpoints: snapshot, stores, config.

A chunked gridder (a compiled engine with ``chunk_samples=``)
accumulates 10^8-sample adjoints chunk by chunk into one pooled dice
buffer — and a crash at chunk 381 of 382 would throw every partial sum
away.  This module makes the partial sums durable.

Why resume is *exact*, not approximate: the chunked adjoint continues
each dice word's summation chain from the value in the dice (SciPy's
in-place ``csc_matvecs``), so every grid word's summation chain is the one-shot chain, chunk boundaries
invisible (``docs/algorithm.md``).  A checkpoint therefore captures the
entire computation state in ``(dice copy, chunk cursor)``: restore the
dice, skip the first ``chunk_cursor`` chunks of a deterministic stream
replay, and the remaining chunks continue the identical summation
chain.  The resumed output is ``np.array_equal`` to an uninterrupted
run — bit-identity, the same property the engine zoo is tested for.

Pieces:

- :class:`StreamCheckpoint` — one snapshot: ``(fingerprint,
  chunk_cursor, sample_cursor, dice)`` plus shape metadata for
  validation.  RNG-free: nothing in the chunked adjoint draws
  random numbers, so no generator state needs saving.
- :class:`CheckpointStore` — thread-safe, LRU-bounded in-memory store
  (the service default: checkpoints live exactly as long as the
  process that needs them).
- :class:`FileCheckpointStore` — ``.npz``-per-key directory store with
  atomic tmp + ``os.replace`` writes, for resumes that must survive
  the process.
- :class:`CheckpointConfig` — what the chunked gridder reads:
  which store, which key, snapshot every N chunks, whether to resume
  and whether to delete on success.

Examples
--------
>>> import numpy as np
>>> from repro.robustness import CheckpointStore, StreamCheckpoint
>>> store = CheckpointStore(max_entries=2)
>>> ck = StreamCheckpoint(fingerprint="abc", chunk_cursor=3,
...                       sample_cursor=192, dice=np.zeros((1, 8), complex))
>>> store.save("job-1", ck)
>>> store.load("job-1").chunk_cursor
3
>>> store.load("missing") is None
True
>>> store.delete("job-1")
>>> len(store)
0
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "StreamCheckpoint",
    "CheckpointStore",
    "FileCheckpointStore",
    "CheckpointConfig",
]


@dataclass
class StreamCheckpoint:
    """One snapshot of a chunked accumulation in progress.

    Attributes
    ----------
    fingerprint:
        Identity of the computation (the service uses the trajectory
        fingerprint + plan key); a resume against a different
        fingerprint is refused and falls back to a fresh run.
    chunk_cursor:
        Number of stream chunks fully accumulated into ``dice``.
        Resume skips exactly this many chunks of the replayed stream.
    sample_cursor:
        Samples consumed so far (reporting/diagnostics only — the
        chunk cursor is authoritative).
    dice:
        A *copy* of the flattened dice accumulator,
        shape ``(k_rhs, n_columns * n_tiles)``.
    """

    fingerprint: str
    chunk_cursor: int
    sample_cursor: int
    dice: np.ndarray

    def matches(self, fingerprint: str, dice_shape: tuple[int, ...]) -> bool:
        """True when this snapshot can seed a run with the given
        identity and accumulator shape."""
        return (
            self.fingerprint == fingerprint
            and tuple(self.dice.shape) == tuple(dice_shape)
            and self.chunk_cursor > 0
        )


class CheckpointStore:
    """Thread-safe in-memory checkpoint store, LRU-bounded.

    The bound is on *entries*, not bytes: one entry holds one dice
    copy (grid-sized), and the service keys checkpoints by job id, so
    ``max_entries`` caps worst-case residency at a handful of grids.
    """

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, StreamCheckpoint] = OrderedDict()

    def save(self, key: str, checkpoint: StreamCheckpoint) -> None:
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = checkpoint
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def load(self, key: str) -> Optional[StreamCheckpoint]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def delete(self, key: str) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class FileCheckpointStore:
    """``.npz``-per-key checkpoint store under one directory.

    Writes are atomic (tmp file + ``os.replace``), so a crash mid-save
    leaves the previous snapshot intact, never a torn file.  Keys are
    hashed into filenames, so any string key is safe.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, key: str) -> str:
        digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:24]
        return os.path.join(self.directory, f"ckpt_{digest}.npz")

    def save(self, key: str, checkpoint: StreamCheckpoint) -> None:
        path = self._path(key)
        tmp = path + ".tmp"
        with self._lock:
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    fingerprint=np.array(checkpoint.fingerprint),
                    chunk_cursor=np.array(checkpoint.chunk_cursor),
                    sample_cursor=np.array(checkpoint.sample_cursor),
                    dice=checkpoint.dice,
                )
            os.replace(tmp, path)

    def load(self, key: str) -> Optional[StreamCheckpoint]:
        path = self._path(key)
        with self._lock:
            if not os.path.exists(path):
                return None
            with np.load(path, allow_pickle=False) as data:
                return StreamCheckpoint(
                    fingerprint=str(data["fingerprint"]),
                    chunk_cursor=int(data["chunk_cursor"]),
                    sample_cursor=int(data["sample_cursor"]),
                    dice=np.array(data["dice"]),
                )

    def delete(self, key: str) -> None:
        path = self._path(key)
        with self._lock:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass

    def keys(self) -> list[str]:  # pragma: no cover - diagnostics
        with self._lock:
            return sorted(
                name for name in os.listdir(self.directory)
                if name.startswith("ckpt_") and name.endswith(".npz")
            )

    def __len__(self) -> int:
        return len(self.keys())


@dataclass
class CheckpointConfig:
    """What a chunked gridder needs to checkpoint one run.

    Attach an instance as ``gridder.checkpoint`` (the service worker
    does this per job and clears it in a ``finally``).  The gridder:

    - on entry, if ``resume`` and the store holds a matching snapshot
      (same ``fingerprint``, same accumulator shape), seeds the dice
      from it and skips ``chunk_cursor`` chunks of the replayed
      stream;
    - saves a snapshot after every ``every`` accumulated chunks;
    - on success, deletes the key if ``delete_on_success``.

    A fingerprint mismatch never corrupts anything: the stale snapshot
    is ignored (and recorded as a degradation event) and the run
    starts fresh.
    """

    store: CheckpointStore | FileCheckpointStore
    key: str
    fingerprint: str = ""
    every: int = 1
    resume: bool = True
    delete_on_success: bool = True

    def __post_init__(self) -> None:
        self.every = max(1, int(self.every))
