"""Checkpoint and restore of streaming monitoring sessions.

A long-lived monitor must survive restarts without losing the execution it
has accumulated: result logs, predictor history, controller state, sampler
RNG positions, the bin counter, even reconfigurations still queued for the
next bin boundary.  This module freezes all of it to one file and thaws it
back into a session that resumes **bit-identically** — feeding the restored
session the remaining bins produces the exact ``ExecutionResult`` an
uninterrupted run would have produced (``tests/test_checkpoint.py`` pins
this across every operating mode, shard count and backend).

The state payloads come from the session classes themselves
(:meth:`~repro.monitor.session.MonitoringSession.state_dict` /
:meth:`~repro.monitor.sharding.ShardedSession.state_dict`); this module owns
the on-disk format: two pickles in a row, a JSON-able ``meta`` summary and
then the session state.  Both are pickled straight into the file, so a
checkpoint never holds the state in memory as bytes.  ``meta`` is readable
without deserialising any session state: loading a checkpoint keeps the
bytes after it as they are, and every :meth:`Checkpoint.restore` call thaws
a fresh object graph from them, so two restores never alias each other's
mutable state.  Files are written atomically (tmp sibling + rename), so a
crash mid-checkpoint never clobbers the previous good checkpoint; a file
cut short anyway, in either pickle, is refused with a typed
:class:`CheckpointCorruptError` naming it.

**Version policy.**  A checkpoint is written by a daemon and read back by
the same build.  ``CHECKPOINT_VERSION`` is bumped whenever a change alters
the file layout or what a pickled session holds; a file of any other
version is refused with a typed :class:`CheckpointVersionError` naming both
versions — the one-pickle wrapper of versions 1-5 is read only that far —
and there are no per-class ``__setstate__`` migrations of older layouts to
keep alive.  Both refusals are logged on ``repro.serve.checkpoint``.

.. warning::
   Checkpoints are pickles.  Loading one executes the pickle protocol, so
   restore only checkpoints you (or your own daemon) wrote — the same trust
   model as any state-restoring service.
"""

from __future__ import annotations

import io
import logging
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, Optional, Union

from ..monitor.session import MonitoringSession
from ..monitor.sharding import ShardedSession

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "capture",
    "describe_checkpoint",
    "load_checkpoint",
    "restore_session",
    "save_checkpoint",
]

#: Format tag every checkpoint file carries.
CHECKPOINT_FORMAT = "repro-checkpoint"
#: Bumped when the file layout, or what a pickled session holds, changes
#: incompatibly (6: ``meta`` and the state are two pickles in a row, where
#: versions 1-5 wrapped ``meta`` and the state, as a nested pickle, in one
#: dict; 7: a session's result holds its bins as the columns of a
#: ``BinTable``, not as a list of ``BinRecord`` objects, and a bin records
#: its ``expected_cycles``; 8: the cycle clock keeps only the delay, the
#: capture buffer no drop counters, and the system its last accounted
#: ``BinRecord`` in place of the reactive rate and cycles, while the
#: profiler's stages carry no cycles; 9: a ``BinRecord``, and the columns
#: of a ``BinTable``, carry the bin's rate decision beside its outcome —
#: the plan's cycles, allowance and EWMAs, and each query's prediction,
#: decided rate and bound; 10: a sampler's state is a stream key and a
#: counter of its draws, not a ``numpy`` generator, and the system keeps
#: no generator of its own; 11: a custom-shedding P2P detector's flow hash
#: is a flow sampler keyed by its stream key, and a plain one has none).
#: Dropping an attribute nothing reads is compatible and bumps nothing: a
#: version-8 file written while a query still kept an enabled flag and its
#: last sampling rate, its runtime its last prediction and seed, and its
#: extractor and flow sampler clocks of their own, restores with those
#: riding along unread.
CHECKPOINT_VERSION = 11

logger = logging.getLogger("repro.serve.checkpoint")
# A refusal is raised as well as logged: without handlers of the
# application's own, whoever catches it reports it, not logging's last
# resort a second time.
logger.addHandler(logging.NullHandler())


class CheckpointVersionError(ValueError):
    """The checkpoint was written by a build with another state layout."""


class CheckpointCorruptError(ValueError):
    """The checkpoint file is damaged: one of its pickles does not load."""


def _refused(error_type: type, message: str) -> ValueError:
    """The error refusing a checkpoint, logged here, where it is known."""
    logger.error(message)
    return error_type(message)


def _described(path: Optional[Path]) -> str:
    return "checkpoint" if path is None else str(path)


#: The session types this module can freeze and thaw.
_SESSION_TYPES = (MonitoringSession, ShardedSession)


def _session_meta(session) -> Dict:
    """JSON-able summary of a session, stored alongside the state."""
    if isinstance(session, ShardedSession):
        mode = session.sharded.mode
        num_shards = session.num_shards
    else:
        mode = session.system.mode
        num_shards = 1
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": ("sharded" if isinstance(session, ShardedSession)
                 else "monitoring"),
        "name": session.name,
        "mode": mode,
        "num_shards": num_shards,
        "time_bin": session.time_bin,
        "bins_ingested": session.bins_ingested,
        "query_names": list(session.query_names),
        "created_unix": time.time(),
    }


@dataclass
class Checkpoint:
    """A loaded checkpoint: the ``meta`` summary plus the frozen state.

    The session state stays serialised until :meth:`restore` thaws it, and
    every restore deserialises afresh — restoring twice yields two fully
    independent sessions.
    """

    meta: Dict
    #: The state pickle: the bytes of the file after ``meta``.
    state_blob: bytes = field(repr=False)
    path: Optional[Path] = None

    @property
    def kind(self) -> str:
        return self.meta["kind"]

    def restore(self, n_workers: int = 1, backend: str = "auto",
                respect_cores: bool = True
                ) -> Union[MonitoringSession, ShardedSession]:
        """Thaw the checkpoint into a live, resumable session.

        The execution backend of a sharded checkpoint is chosen here, not
        at capture time: a run checkpointed on the persistent worker pool
        may resume in-process and vice versa, bit-identically.
        """
        try:
            state = pickle.loads(self.state_blob)
        except (pickle.UnpicklingError, EOFError) as error:
            raise _refused(
                CheckpointCorruptError,
                f"{_described(self.path)} is damaged: its session state does "
                f"not load ({type(error).__name__}: {error})") from error
        if self.kind == "monitoring":
            return MonitoringSession.from_state(state)
        if self.kind == "sharded":
            return ShardedSession.from_state(
                state, n_workers=n_workers, backend=backend,
                respect_cores=respect_cores)
        raise ValueError(f"unknown checkpoint kind {self.kind!r}")


def _write(session, stream: BinaryIO) -> None:
    """Pickle ``session``'s checkpoint into ``stream``: ``meta``, then the
    state."""
    if not isinstance(session, _SESSION_TYPES):
        raise TypeError(
            f"cannot checkpoint a {type(session).__name__}; expected a "
            "MonitoringSession or ShardedSession")
    state = session.state_dict()
    pickle.dump(_session_meta(session), stream,
                protocol=pickle.HIGHEST_PROTOCOL)
    pickle.dump(state, stream, protocol=pickle.HIGHEST_PROTOCOL)


def capture(session) -> bytes:
    """Serialise ``session``'s complete execution state to a byte blob.

    The blob is what :func:`save_checkpoint` writes to its file.  The
    snapshot is taken at the moment of pickling, at the session's current
    bin boundary; the live session is untouched and keeps streaming.
    Pending (not yet applied) reconfigurations are part of the state and
    will fire at the restored session's next bin, exactly as they would
    have.
    """
    stream = io.BytesIO()
    _write(session, stream)
    return stream.getvalue()


def save_checkpoint(session, path: Union[str, Path]) -> Path:
    """Write ``session``'s state to ``path`` atomically; returns the path.

    The pickles land in a temporary sibling first, which is renamed into
    place, so an interrupted write leaves any previous checkpoint at
    ``path`` intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with tmp_path.open("wb") as stream:
            _write(session, stream)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    tmp_path.replace(path)
    return path


def load_checkpoint(source: Union[str, Path, bytes]) -> Checkpoint:
    """Load a checkpoint file (or a :func:`capture` blob) without restoring.

    Only ``meta`` is deserialised here — inspect it cheaply, then call
    :meth:`Checkpoint.restore` to thaw the session state itself.
    """
    path = None if isinstance(source, bytes) else Path(source)
    with (io.BytesIO(source) if path is None else path.open("rb")) as stream:
        try:
            meta = pickle.load(stream)
        except (pickle.UnpicklingError, EOFError) as error:
            raise _refused(
                CheckpointCorruptError,
                f"{_described(path)} is damaged: its meta summary does not "
                f"load ({type(error).__name__}: {error})") from error
        state_blob = stream.read()
    if isinstance(meta, dict) and isinstance(meta.get("meta"), dict):
        meta = meta["meta"]  # the one-pickle wrapper of versions 1-5
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{_described(path)} is not a repro checkpoint")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise _refused(
            CheckpointVersionError,
            f"{_described(path)} is a version {meta.get('version')!r} "
            f"checkpoint; this build reads version {CHECKPOINT_VERSION} "
            "only (restore it with the build that wrote it)")
    return Checkpoint(meta=meta, state_blob=state_blob, path=path)


def describe_checkpoint(path: Union[str, Path]) -> Dict:
    """The checkpoint's ``meta`` summary (kind, bins, queries, ...)."""
    return dict(load_checkpoint(path).meta)


def restore_session(source: Union[str, Path, bytes, Checkpoint],
                    n_workers: int = 1, backend: str = "auto",
                    respect_cores: bool = True
                    ) -> Union[MonitoringSession, ShardedSession]:
    """One-call restore: load ``source`` and thaw it into a live session."""
    checkpoint = source if isinstance(source, Checkpoint) \
        else load_checkpoint(source)
    return checkpoint.restore(n_workers=n_workers, backend=backend,
                              respect_cores=respect_cores)
