"""Mutants the suites must kill: ``python tests/mutants.py [--rev REV]``.

An entry plants a fault in ``src/``: in ``file``, the text ``old`` (which
occurs there once) becomes ``new``, and every test of ``kills`` (ids as
pytest prints them) must fail.  The runner extracts ``git archive REV``
(default ``HEAD``) to a temporary directory, runs the listed tests there
unmutated (all must pass), then with each mutant alone, and exits 1 if a
test fails without its mutant or passes with it.  Tier-1 checks only that
each ``old`` still occurs once.  A change that says a test "fails on a
scratch copy whose ..." adds the mutant here.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    kills: Tuple[str, ...]


def _cells(*ids):
    return tuple(f"tests/test_conformance.py::test_cell[{id_}]"
                 for id_ in ids)


MUTANTS = (
    Mutant("a worker that skips the slot remap",
           "src/repro/monitor/workers.py",
           "if view is None or len(view) != size:", "if view is None:",
           ("tests/test_workers.py::TestSlotGrowth::"
            "test_growing_slots_twice_mid_stream_changes_no_result",)),
    Mutant("Batch.rowwise gathers the wrong rows",
           "src/repro/monitor/packet.py",
           "rowwise(key, build)[..., self._parent_index]",
           "rowwise(key, build)[..., self._parent_index // 2]",
           ("tests/test_extractor_oracle.py::"
            "test_every_vector_equals_the_oracle[bitmap]",)),
    Mutant("a BinTable that drops its map-column writes",
           "src/repro/monitor/system.py",
           "column.append(self._length, getattr(record, name))", "pass",
           ("tests/test_accumulator.py::"
            "test_a_result_is_a_table_of_the_records_it_folded",)),
    Mutant("a snapshot that shares its result's bins",
           "src/repro/monitor/system.py",
           "clone.bins = self.bins.copy()", "clone.bins = self.bins",
           ("tests/test_accumulator.py::"
            "test_a_snapshot_is_read_while_its_result_keeps_growing",)),
    Mutant("a typo in a facade table", "src/repro/__init__.py",
           '("LoadSheddingController",)', '("LoadShedingController",)',
           ("tests/test_facades.py::"
            "test_every_public_name_is_its_defining_modules_object[repro]",)),
    Mutant("per-bin sums in registration order",
           "src/repro/monitor/system.py",
           "self._runtimes = dict(sorted(self._runtimes.items()))", "pass",
           ("tests/test_system_integration.py::TestQueryOrder::"
            "test_a_mix_answers_the_same_in_any_order[predictive]",)
           + _cells("step-predictive-bitmap", "daemon-predictive-exact")),
    Mutant("a store that loses each bin's first packet",
           "src/repro/monitor/packet.py",
           "self._grid.bin(index, int(self._bounds[index]),",
           "self._grid.bin(index, int(self._bounds[index]) + 1,",
           _cells("store-predictive-bitmap", "store-reference",
                  "daemon-original", "workers-reactive")),
    Mutant("an ingest that folds one interval a bin",
           "src/repro/monitor/session.py",
           "self._result.fold(record, flushed, self._query_names)",
           "self._result.fold(record, flushed[:1], self._query_names)",
           _cells("step-predictive-exact", "step-reference")),
    Mutant("a one-node fleet that reseeds its node",
           "src/repro/fleet/topology.py",
           "shard_seed(base.seed, index)", "shard_seed(base.seed, index + 1)",
           _cells("fleet-1-predictive-bitmap", "fleet-1-reactive")),
    Mutant("a daemon that ends on a snapshot, not a close",
           "src/repro/serve/daemon.py",
           "self.result = self.session.close()",
           "self.result = self.session.partial_result()",
           _cells("daemon-predictive-bitmap", "daemon-reference",
                  "socket-reactive", "daemon-shards-original")),
    Mutant("a SocketFeed that drops the bin in hand when stopped",
           "src/repro/serve/feeds.py",
           "if batch is None:  # stop() queues it after every cut bin",
           "if batch is None or self._stopping:",
           _cells("socket-predictive-bitmap", "socket-reference")),
    Mutant("a restored exact counter that forgets its items",
           "src/repro/core/distinct.py",
           'self._items = _frozen(state["_items"])', "self._items = _NO_ITEMS",
           _cells("restore-predictive-exact", "restore-x-predictive-exact")),
    Mutant("a node that splits its budget one shard too many",
           "src/repro/monitor/sharding.py",
           "share = self.total_cycles_per_second / self.num_shards",
           "share = self.total_cycles_per_second / (self.num_shards + 1)",
           _cells("shard-1-predictive-exact", "shard-1-original")),
    Mutant("a node that keeps shard 0's partials",
           "src/repro/monitor/sharding.py",
           "[entry[3] for entry in entries]",
           "[entry[3] for entry in entries[:1]]",
           _cells("shards-reference", "workers-reference",
                  "restore-x-reference")),
    Mutant("a worker that stamps its bin one bin late",
           "src/repro/monitor/workers.py",
           "view, n, time_bin=bin_len, start_ts=start_ts,",
           "view, n, time_bin=bin_len, start_ts=start_ts + bin_len,",
           _cells("workers-predictive-bitmap", "workers-original",
                  "fleet-fork-reactive")),
    Mutant("a pool that hands each shard's reply to another shard",
           "src/repro/monitor/workers.py",
           "self.arrived[index].append(answer)",
           "self.arrived[len(self.arrived) - 1 - index].append(answer)",
           _cells("workers-predictive-bitmap", "workers-reactive",
                  "restore-x-predictive-exact")),
    Mutant("a restore that deals the shard sessions to the wrong shards",
           "src/repro/monitor/sharding.py",
           'load_sessions(state["shard_sessions"])',
           'load_sessions(state["shard_sessions"][::-1])',
           _cells("restore-x-predictive-bitmap", "restore-x-reactive")),
    Mutant("a forked fleet that deals the node configs backwards",
           "src/repro/fleet/runner.py",
           "ShardWorkerPool(configs, None,",
           "ShardWorkerPool(configs[::-1], None,",
           _cells("fleet-fork-predictive-exact", "fleet-fork-reactive")),
    Mutant("a bin handed its grants runs every query at full rate",
           "src/repro/monitor/pipeline.py",
           "[ctx.given[runtime.query.name] for runtime in ctx.active]",
           "[1.0 for runtime in ctx.active]",
           _cells("rates-predictive-bitmap", "rates-predictive-exact",
                  "rates-reactive")),
    Mutant("a sampled query learns from its pre-shed features",
           "src/repro/monitor/pipeline.py",
           "features = runtime.extractor.extract(processed, update_state=True)",
           "features = ctx.features_pre[name]",
           ("tests/test_golden.py::TestGoldenOutcomes::"
            "test_series_totals_pinned[exact-predictive]",
            "tests/test_golden.py::TestGoldenOutcomes::"
            "test_series_totals_pinned[bitmap-predictive]",
            "tests/test_budget_decomposition.py::"
            "test_the_overspend_is_the_loan_the_error_and_the_slack[1]")),
    Mutant("a given bin trains its predictors",
           "src/repro/monitor/pipeline.py",
           'if ctx.given is None and system.mode == "predictive":',
           'if system.mode == "predictive":',
           ("tests/test_system_integration.py::TestGivenBins::"
            "test_a_given_bin_learns_nothing",)
           + _cells("rates-predictive-bitmap", "rates-predictive-exact")),
    Mutant("a water fill that ignores the weights",
           "src/repro/core/fairness.py",
           "used = float((weights * np.clip(mid, floors, ceilings)).sum())",
           "used = float(np.clip(mid, floors, ceilings).sum())",
           ("tests/test_tenancy.py::TestKernelBitIdentity::"
            "test_kernel_matches_scalar_reference[1-mmfs_pkt]",
            "tests/test_tenancy.py::TestTwoTierProperties::"
            "test_vectorised_matches_scalar_reference",
            "tests/test_sampling_fairness_game.py::TestKernelsEqualTheOracle::"
            "test_kernel_equals_scalar_reference",
            "tests/test_sampling_fairness_game.py::"
            "TestGrownSlotTableAllocatesLikeTheOracle::"
            "test_every_bins_allocation_equals_the_oracle[mmfs_pkt]")),
)


def _failing(tree: Path, ids) -> set:
    """Which of ``ids`` fail in ``tree`` (all, if pytest cannot run)."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", *ids], cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"})
    if run.returncode not in (0, 1):
        return set(ids)
    return {line.split()[1] for line in run.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", default="HEAD")
    rev = parser.parse_args(argv).rev
    archive = subprocess.run(["git", "archive", rev], cwd=REPO, check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        broken = _failing(tree, {id_ for m in MUTANTS for id_ in m.kills})
        for id_ in sorted(broken):
            print(f"fails without a mutant: {id_}")
        survived = 0
        for mutant in MUTANTS:
            path = tree / mutant.file
            text = path.read_text()
            path.write_text(text.replace(mutant.old, mutant.new))
            passing = set(mutant.kills) - _failing(tree, mutant.kills)
            path.write_text(text)
            survived += bool(passing)
            print(f"{'SURVIVED' if passing else 'killed'}: {mutant.name} "
                  f"({len(mutant.kills) - len(passing)} of "
                  f"{len(mutant.kills)} tests fail)")
            for id_ in sorted(passing):
                print(f"    passes: {id_}")
    return 1 if broken or survived else 0


if __name__ == "__main__":
    sys.exit(main())
