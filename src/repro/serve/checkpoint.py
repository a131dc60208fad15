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
the on-disk format: one pickle file wrapping a JSON-able ``meta`` summary
and the session state as a *nested* pickle blob.  The nesting is
deliberate: ``meta`` is readable without deserialising any session state,
and every :meth:`Checkpoint.restore` call thaws a fresh object graph from
the blob, so two restores never alias each other's mutable state.  Files
are written atomically (tmp sibling + rename), so a crash mid-checkpoint
never clobbers the previous good checkpoint.

**Version policy.**  A checkpoint is written by a daemon and read back by
the same build.  ``CHECKPOINT_VERSION`` is bumped whenever a change alters
what a pickled session holds; a file of any other version is refused with
a typed :class:`CheckpointVersionError` naming both versions (and logged on
``repro.serve.checkpoint``) — there are no per-class ``__setstate__``
migrations of older layouts to keep alive.

.. warning::
   Checkpoints are pickles.  Loading one executes the pickle protocol, so
   restore only checkpoints you (or your own daemon) wrote — the same trust
   model as any state-restoring service.
"""

from __future__ import annotations

import logging
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from ..monitor.session import MonitoringSession
from ..monitor.sharding import ShardedSession

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointVersionError",
    "capture",
    "describe_checkpoint",
    "load_checkpoint",
    "restore_session",
    "save_checkpoint",
]

#: Format tag every checkpoint file carries.
CHECKPOINT_FORMAT = "repro-checkpoint"
#: Bumped when the wrapper layout, or what a pickled session holds,
#: changes incompatibly (5: a pickled SystemConfig no longer has
#: ``predictor_kwargs``, ``feature_kwargs``, ``buffer_seconds``,
#: ``reactive_min_rate`` or ``shard_backend``).
CHECKPOINT_VERSION = 5

logger = logging.getLogger("repro.serve.checkpoint")


class CheckpointVersionError(ValueError):
    """The checkpoint was written by a build with another state layout."""


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
        state = pickle.loads(self.state_blob)
        if self.kind == "monitoring":
            return MonitoringSession.from_state(state)
        if self.kind == "sharded":
            return ShardedSession.from_state(
                state, n_workers=n_workers, backend=backend,
                respect_cores=respect_cores)
        raise ValueError(f"unknown checkpoint kind {self.kind!r}")


def capture(session) -> bytes:
    """Serialise ``session``'s complete execution state to a byte blob.

    The snapshot is taken at the moment of pickling, at the session's
    current bin boundary; the live session is untouched and keeps
    streaming.  Pending (not yet applied) reconfigurations are part of the
    state and will fire at the restored session's next bin, exactly as
    they would have.
    """
    if not isinstance(session, _SESSION_TYPES):
        raise TypeError(
            f"cannot checkpoint a {type(session).__name__}; expected a "
            "MonitoringSession or ShardedSession")
    state_blob = pickle.dumps(session.state_dict(),
                              protocol=pickle.HIGHEST_PROTOCOL)
    wrapper = {"meta": _session_meta(session), "state_blob": state_blob}
    return pickle.dumps(wrapper, protocol=pickle.HIGHEST_PROTOCOL)


def save_checkpoint(session, path: Union[str, Path]) -> Path:
    """Write ``session``'s state to ``path`` atomically; returns the path.

    The blob lands in a temporary sibling first and is renamed into place,
    so an interrupted write leaves any previous checkpoint at ``path``
    intact.
    """
    path = Path(path)
    blob = capture(session)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(path.name + ".tmp")
    tmp_path.write_bytes(blob)
    tmp_path.replace(path)
    return path


def load_checkpoint(source: Union[str, Path, bytes]) -> Checkpoint:
    """Load a checkpoint file (or a :func:`capture` blob) without restoring.

    Only the wrapper is deserialised here — inspect ``meta`` cheaply, then
    call :meth:`Checkpoint.restore` to thaw the session state itself.
    """
    if isinstance(source, bytes):
        wrapper = pickle.loads(source)
        path = None
    else:
        path = Path(source)
        wrapper = pickle.loads(path.read_bytes())
    if not isinstance(wrapper, dict) or "meta" not in wrapper \
            or "state_blob" not in wrapper:
        raise ValueError(f"{source!r} is not a repro checkpoint")
    meta = wrapper["meta"]
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{source!r} is not a repro checkpoint "
                         f"(format={meta.get('format')!r})")
    if meta.get("version") != CHECKPOINT_VERSION:
        message = (
            f"{'checkpoint' if path is None else path} is a version "
            f"{meta.get('version')!r} checkpoint; this build reads version "
            f"{CHECKPOINT_VERSION} only (restore it with the build that "
            "wrote it)")
        logger.error(message)
        raise CheckpointVersionError(message)
    return Checkpoint(meta=meta, state_blob=wrapper["state_blob"], path=path)


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
