"""Shared fixtures and Hypothesis profiles for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.monitor.packet import COLUMN_FIELDS, Batch
from repro.monitor.workers import fork_start_available
from repro.traffic import TrafficProfile, generate_trace
from repro.traffic.trace_io import TraceStore, TraceWriter

#: Marks a test that starts a worker pool, which needs fork and
#: os.memfd_create.
needs_fork = pytest.mark.skipif(not fork_start_available(),
                                reason="needs fork and os.memfd_create")

# Hypothesis profiles: the default keeps the suite fast on every push; the
# nightly CI schedule runs the same properties much harder
# (HYPOTHESIS_PROFILE=ci-nightly).  Property tests must not pin
# ``max_examples`` in their own ``@settings`` or the profile cannot reach
# them.
settings.register_profile("default", max_examples=50, deadline=None)
settings.register_profile(
    "ci-nightly", max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_batch(n=100, seed=0, start_ts=0.0, time_bin=0.1, payloads=False,
               n_hosts=20):
    """Small synthetic batch with a controllable number of distinct hosts."""
    rng = np.random.default_rng(seed)
    src = rng.integers(1, n_hosts + 1, size=n).astype(np.uint32)
    dst = rng.integers(1000, 1000 + n_hosts, size=n).astype(np.uint32)
    batch = Batch(
        ts=start_ts + np.sort(rng.uniform(0, time_bin, size=n)),
        src_ip=src,
        dst_ip=dst,
        src_port=rng.integers(1024, 65535, size=n).astype(np.uint16),
        dst_port=rng.choice([80, 443, 53, 6881], size=n).astype(np.uint16),
        proto=np.full(n, 6, dtype=np.uint8),
        size=rng.integers(40, 1500, size=n).astype(np.uint32),
        payloads=[bytes(rng.integers(32, 127, size=50, dtype=np.uint8))
                  for _ in range(n)] if payloads else None,
        time_bin=time_bin,
        start_ts=start_ts,
    )
    return batch


def dev_shm():
    """The names in ``/dev/shm``: a shard worker pool must add none."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") \
        else set()


def slot_files():
    """What of this process still reaches a shard worker slot: its open
    descriptors and its mappings of ``memfd:repro-slot...`` files."""
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed by now
            continue
        if target.startswith("/memfd:repro-slot"):
            found.append(f"fd {fd}: {target}")
    with open("/proc/self/maps") as maps:
        found += [line.strip() for line in maps
                  if "/memfd:repro-slot" in line]
    return found


def assert_pool_released(pool, shm_before):
    """Nothing of ``pool`` outlives it: its workers are reaped (none is
    left for ``os.waitpid`` to find), this process holds no descriptor or
    mapping of a slot, and ``/dev/shm`` has no entry that was not there
    before (``shm_before``)."""
    assert pool._stopped
    for worker in pool._workers:
        assert worker.exitcode is not None
        with pytest.raises(ChildProcessError):
            os.waitpid(worker.pid, os.WNOHANG)
    assert not slot_files()
    assert dev_shm() <= shm_before


def drop_memos(batch):
    """Forget what earlier runs memoised on a batch its trace keeps."""
    batch._agg_cache = None
    batch._filter_cache = None


def write_header_store(path, seconds, packets_per_bin=10_000):
    """A header store of ``seconds`` of dense traffic, appended a second
    at a time (25 bytes a packet: 12 s is 30 MB)."""
    rng = np.random.default_rng(16)
    per_second = 10 * packets_per_bin
    with TraceWriter(path, name=path.name) as writer:
        for second in range(seconds):
            ts = second + np.sort(rng.random(per_second))
            writer.append(Batch(
                ts=ts,
                src_ip=rng.integers(0, 2 ** 32, per_second, dtype=np.uint32),
                dst_ip=rng.integers(0, 2 ** 32, per_second, dtype=np.uint32),
                src_port=rng.integers(0, 2 ** 16, per_second,
                                      dtype=np.uint16),
                dst_port=rng.integers(0, 2 ** 16, per_second,
                                      dtype=np.uint16),
                proto=np.full(per_second, 6, dtype=np.uint8),
                size=rng.integers(40, 1500, per_second, dtype=np.uint32)))
    return TraceStore(path)


def probe(script, store, *args):
    """Run ``script`` on ``store`` (and ``args``) in a fresh process of its
    own; what it prints, split into words."""
    import repro
    src = Path(repro.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", script, str(store.path),
                           *args],
                          env={"PYTHONPATH": str(src)}, check=True,
                          capture_output=True, text=True).stdout.split()


def probe_rss_mb(script, store):
    """Run ``script`` on ``store`` in a process of its own, so a peak is
    that run's own; the first two numbers it prints (``VmHWM`` in kB,
    before and after) in MB."""
    out = probe(script, store)
    return int(out[0]) / 1024.0, int(out[1]) / 1024.0


@pytest.fixture
def small_batch():
    return make_batch(n=200, seed=1)


@pytest.fixture(scope="session")
def small_trace():
    """A short header-only trace shared by many tests."""
    profile = TrafficProfile(duration=4.0, flow_arrival_rate=150.0,
                             with_payloads=False, name="test-header")
    return generate_trace(profile, seed=3)


@pytest.fixture(scope="session")
def payload_trace_small():
    """A short full-payload trace shared by payload-query tests."""
    profile = TrafficProfile(duration=4.0, flow_arrival_rate=120.0,
                             with_payloads=True, name="test-payload")
    return generate_trace(profile, seed=4)


def assert_bins_identical(first, second, label: str = "") -> None:
    """Assert two bin sequences are bit-identical.

    Every bin must match in ``start_ts`` and ``time_bin`` (strict ``==``),
    in all seven packet columns with their dtypes, and in its payloads.
    ``label`` tags the failing assertion (which path, which feed, ...).
    """
    first, second = list(first), list(second)
    assert len(first) == len(second), label
    for index, (one, other) in enumerate(zip(first, second)):
        assert one.start_ts == other.start_ts, (label, index)
        assert one.time_bin == other.time_bin, (label, index)
        for column in COLUMN_FIELDS:
            mine, theirs = getattr(one, column), getattr(other, column)
            assert mine.dtype == theirs.dtype, (label, index, column)
            assert np.array_equal(mine, theirs), (label, index, column)
        assert one.payloads == other.payloads, (label, index)


def cycles_of(allocation) -> dict:
    """An :class:`~repro.core.fairness.Allocation`'s cycles by query."""
    return dict(zip(allocation.names, allocation.cycle_array.tolist()))


def process(query, batch, sampling_rate: float = 1.0) -> float:
    """Filter ``batch``, update ``query`` with it and return the cycles
    the batch cost: one bin of a query outside any system."""
    query.update(query.filter.apply(batch), sampling_rate)
    return query.consume_cycles()

