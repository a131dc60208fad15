"""Fleet federation tests: topology, partitioning, federation, CLI.

The correctness anchor is the exactness gate: a fleet of N nodes over a
flow-partitioned stream, run in reference mode, must produce query logs
*bit-identical* to one node over the whole stream for every merge-exact
query kind — the federated second merge tier adds nothing and loses
nothing.  Around it: topology parsing/validation, flow-affinity of every
partition rule, per-node overlay application, metrics folding, Prometheus
scraping, the ``Batch.partition`` memo keying, and the
``python -m repro.fleet`` CLI surface.
"""

import gc
import json
import multiprocessing
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.cycles import CycleBudget
from repro.core.features import FeatureExtractor
from repro.experiments.runner import calibrate_capacity, system_config
from repro.fleet import (FleetPartitioner, FleetRunner, FleetTopology,
                         NodeSpec, load_topology, verify_exactness)
from repro.fleet.__main__ import main as fleet_main
from repro.monitor.config import SystemConfig
from repro.monitor.packet import Batch
from repro.monitor.sharding import FLOW_FIELDS, build_system, shard_seed
from repro.monitor.workers import fork_start_available
from repro.profile import fold_metrics, summarize
from repro.queries import MERGE_EXACTNESS, QuerySpec, parse_query_specs
from repro.testing import assert_results_identical
from repro.traffic.trace_io import save_trace_store
from tests.conftest import make_batch


def _config(**overrides):
    overrides.setdefault("queries", parse_query_specs("counter,flows"))
    overrides.setdefault("cycles_per_second", 5e7)
    return system_config(**overrides)


# ----------------------------------------------------------------------
# Topology: schema, validation, serialisation
# ----------------------------------------------------------------------
class TestTopology:
    def test_uniform_fleet(self):
        topology = FleetTopology.uniform(4)
        assert topology.num_nodes == 4
        assert topology.weights == (1.0, 1.0, 1.0, 1.0)
        assert [node.name for node in topology.nodes] == [
            "node0", "node1", "node2", "node3"]

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="at least one node"):
            FleetTopology.uniform(0)
        with pytest.raises(ValueError, match="duplicate node names"):
            FleetTopology(nodes=[NodeSpec("a"), NodeSpec("a")])
        with pytest.raises(ValueError, match="weight must be > 0"):
            NodeSpec("a", weight=0.0)
        with pytest.raises(ValueError, match="non-empty name"):
            NodeSpec("")
        with pytest.raises(ValueError, match="unknown partition_by"):
            FleetTopology.uniform(2, partition_by="round-robin")
        with pytest.raises(ValueError, match="prefix_bits"):
            FleetTopology.uniform(2, prefix_bits=0)

    def test_overlay_typos_fail_at_load_time(self):
        with pytest.raises(ValueError, match="node 'a'"):
            FleetTopology(nodes=[NodeSpec("a",
                                          overlay={"cycels": 1e8})])
        with pytest.raises(ValueError, match="defaults"):
            FleetTopology(nodes=[NodeSpec("a")],
                          defaults={"no_such_field": 1})

    def test_from_dict_accepts_int_node_count(self):
        topology = FleetTopology.from_dict({"nodes": 3})
        assert topology.num_nodes == 3
        assert topology.partition_by == "flow-hash"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown topology keys"):
            FleetTopology.from_dict({"nodes": 2, "patition_by": "ingress"})
        with pytest.raises(ValueError, match="unknown node spec keys"):
            NodeSpec.from_dict({"name": "a", "wieght": 2.0})

    def test_roundtrips_through_dict(self):
        topology = FleetTopology(
            nodes=[NodeSpec("pop-ams", weight=2.0,
                            overlay={"mode": "reactive"}),
                   NodeSpec("pop-fra")],
            partition_by="src-prefix", prefix_bits=12,
            defaults={"predictor": "ewma"})
        again = FleetTopology.from_dict(topology.to_dict())
        assert again == topology

    def test_node_configs_overlay_order_and_defaults(self):
        base = _config(cycles_per_second=2e8, seed=7)
        topology = FleetTopology(
            nodes=[NodeSpec("big", weight=3.0),
                   NodeSpec("small", weight=1.0,
                            overlay={"mode": "reactive"})],
            defaults={"predictor": "ewma"})
        configs = topology.node_configs(base)
        # Budgets split by weight share of the base capacity.
        assert [c.cycles_per_second for c in configs] == [1.5e8, 5e7]
        # defaults apply everywhere; node overlays win over defaults.
        assert [c.predictor for c in configs] == ["ewma", "ewma"]
        assert [c.mode for c in configs] == ["predictive", "reactive"]
        # Node 0 keeps the base seed (1-node fleet == single host).
        assert configs[0].seed == 7
        assert configs[1].seed == shard_seed(7, 1)
        # force= overlays every node (the exactness check's hook).
        forced = topology.node_configs(base, force={"mode": "reference"})
        assert {c.mode for c in forced} == {"reference"}

    def test_explicit_cycles_overlay_is_independent_of_weight(self):
        base = _config(cycles_per_second=2e8)
        topology = FleetTopology(
            nodes=[NodeSpec("a", weight=3.0,
                            overlay={"cycles_per_second": 1e6}),
                   NodeSpec("b")])
        configs = topology.node_configs(base)
        assert configs[0].cycles_per_second == 1e6

    def test_partition_key_tracks_routing_not_overlays(self):
        plain = FleetTopology.uniform(4)
        assert plain.partition_key == FleetTopology(
            nodes=[NodeSpec(f"n{i}", overlay={"mode": "reactive"})
                   for i in range(4)]).partition_key
        assert plain.partition_key != FleetTopology.uniform(5).partition_key
        assert plain.partition_key != FleetTopology.uniform(
            4, partition_by="ingress").partition_key
        weighted = FleetTopology(nodes=[NodeSpec("a", weight=2.0),
                                        NodeSpec("b"), NodeSpec("c"),
                                        NodeSpec("d")])
        assert plain.partition_key != weighted.partition_key


class TestTopologyFiles:
    TOPOLOGY = {"nodes": [{"name": "a", "weight": 2.0},
                          {"name": "b", "overlay": {"mode": "reactive"}}],
                "partition_by": "flow-hash"}

    def test_load_json(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(self.TOPOLOGY))
        topology = load_topology(str(path))
        assert topology.num_nodes == 2
        assert topology.weights == (2.0, 1.0)
        assert topology.nodes[1].overlay == {"mode": "reactive"}

    def test_load_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "fleet.yaml"
        path.write_text(yaml.safe_dump(self.TOPOLOGY))
        assert load_topology(str(path)) == load_topology_json(tmp_path)

    def test_yaml_without_pyyaml_is_actionable(self, tmp_path, monkeypatch):
        path = tmp_path / "fleet.yaml"
        path.write_text("nodes: 2\n")
        monkeypatch.setitem(sys.modules, "yaml", None)
        with pytest.raises(ImportError, match="PyYAML"):
            load_topology(str(path))

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="mapping"):
            load_topology(str(path))


def load_topology_json(tmp_path):
    path = tmp_path / "fleet-ref.json"
    path.write_text(json.dumps(TestTopologyFiles.TOPOLOGY))
    return load_topology(str(path))


# ----------------------------------------------------------------------
# Partitioning: flow affinity, weights, memo keying
# ----------------------------------------------------------------------
class TestPartitioner:
    @pytest.mark.parametrize("mode", ["flow-hash", "src-prefix", "ingress"])
    def test_split_is_a_partition(self, mode):
        batch = make_batch(n=600, seed=11, n_hosts=40)
        partitioner = FleetPartitioner(
            FleetTopology.uniform(3, partition_by=mode))
        parts = partitioner.split(batch)
        assert len(parts) == 3
        assert sum(len(part) for part in parts) == len(batch)
        assert np.array_equal(
            np.sort(np.concatenate([part.ts for part in parts])),
            np.sort(batch.ts))

    @pytest.mark.parametrize("mode", ["flow-hash", "src-prefix", "ingress"])
    def test_assignments_are_flow_affine(self, mode):
        batch = make_batch(n=600, seed=13, n_hosts=10)
        partitioner = FleetPartitioner(
            FleetTopology.uniform(4, partition_by=mode))
        nodes = partitioner.assignments(batch)
        assert nodes.min() >= 0 and nodes.max() < 4
        # Every rule routes on (a function of) the source address at most
        # as fine as the 5-tuple: packets sharing a full 5-tuple must
        # always land on the same node.
        flows = np.stack([np.asarray(getattr(batch, field), dtype=np.uint64)
                          for field in FLOW_FIELDS])
        seen = {}
        for index in range(len(batch)):
            key = tuple(flows[:, index])
            assert seen.setdefault(key, nodes[index]) == nodes[index]

    def test_src_prefix_groups_by_prefix(self):
        batch = make_batch(n=400, seed=5, n_hosts=50)
        topology = FleetTopology.uniform(3, partition_by="src-prefix",
                                         prefix_bits=24)
        nodes = FleetPartitioner(topology).assignments(batch)
        prefixes = np.asarray(batch.src_ip, dtype=np.uint32) >> np.uint32(8)
        for prefix in np.unique(prefixes):
            assert len(np.unique(nodes[prefixes == prefix])) == 1

    def test_flow_hash_respects_weights(self):
        batch = make_batch(n=4000, seed=3, n_hosts=500)
        topology = FleetTopology(nodes=[NodeSpec("big", weight=3.0),
                                        NodeSpec("small", weight=1.0)])
        nodes = FleetPartitioner(topology).assignments(batch)
        share = float(np.mean(nodes == 0))
        assert 0.6 < share < 0.9  # ~0.75 of the hash space

    def test_single_node_split_is_identity(self):
        batch = make_batch(n=50, seed=1)
        parts = FleetPartitioner(FleetTopology.uniform(1)).split(batch)
        assert parts == [batch]

    def test_partition_memo_keyed_by_partition_key(self):
        batch = make_batch(n=300, seed=17)
        default_parts = batch.partition(2, FLOW_FIELDS)
        everything_to_node0 = np.zeros(len(batch), dtype=np.intp)
        custom = batch.partition(2, FLOW_FIELDS,
                                 partition_key=("test-custom", 2),
                                 assignments=everything_to_node0)
        assert len(custom[0]) == len(batch) and len(custom[1]) == 0
        # The custom split and the flow-hash split memoise independently:
        # repeating either lookup returns the cached objects unchanged.
        again = batch.partition(2, FLOW_FIELDS)
        assert all(a is b for a, b in zip(again, default_parts))
        custom_again = batch.partition(2, FLOW_FIELDS,
                                       partition_key=("test-custom", 2),
                                       assignments=everything_to_node0)
        assert all(a is b for a, b in zip(custom_again, custom))

    def test_custom_assignments_require_partition_key(self):
        batch = make_batch(n=20, seed=2)
        with pytest.raises(ValueError, match="partition_key"):
            batch.partition(2, FLOW_FIELDS,
                            assignments=np.zeros(20, dtype=np.intp))


# ----------------------------------------------------------------------
# The runner and the exactness gate
# ----------------------------------------------------------------------
class TestFleetRunner:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet backend"):
            FleetRunner(FleetTopology.uniform(2), config=_config(),
                        backend="threads")

    def test_base_config_needs_declarative_queries(self):
        with pytest.raises(ValueError, match="queries"):
            FleetRunner(FleetTopology.uniform(2),
                        config=system_config(queries=None))

    def test_federated_equals_single_node_for_exact_queries(self,
                                                            small_trace):
        verdict = verify_exactness(
            FleetTopology.uniform(3),
            small_trace,
            config=_config(queries=parse_query_specs("counter,flows,top-k")),
            time_bin=0.2)
        assert verdict["exact_queries_identical"] is True
        assert verdict["nodes"] == 3
        for name, entry in verdict["queries"].items():
            assert entry["exactness"] == MERGE_EXACTNESS[entry["kind"]], name
            if entry["checked"]:
                assert entry["identical"] is True, name
        # top-k is merge-prefix, not merge-exact: reported, never gated.
        assert verdict["queries"]["top-k"]["checked"] is False

    @pytest.mark.parametrize("mode", ["src-prefix", "ingress"])
    def test_exactness_holds_for_every_partition_mode(self, small_trace,
                                                      mode):
        verdict = verify_exactness(
            FleetTopology.uniform(2, partition_by=mode), small_trace,
            config=_config(), time_bin=0.5)
        assert verdict["exact_queries_identical"] is True

    def test_one_node_fleet_is_bit_identical_to_single_host(self,
                                                            small_trace):
        config = _config(mode="predictive", cycles_per_second=2e7)
        fleet = FleetRunner(FleetTopology.uniform(1), config=config)
        result = fleet.run(small_trace, time_bin=0.2)
        single = config.build().run(small_trace, time_bin=0.2)
        assert result.federated.bins == single.bins
        for name, log in single.query_logs.items():
            federated_log = result.federated.query_logs[name]
            assert federated_log.intervals == log.intervals
            assert federated_log.results == log.results

    def test_run_produces_latency_evidence_and_metrics(self, small_trace):
        fleet = FleetRunner(FleetTopology.uniform(3), config=_config())
        result = fleet.run(small_trace, time_bin=0.5)
        bins = len(result.federated.bins)
        assert result.node_bin_seconds.shape == (3, bins)
        assert result.bin_latency.shape == (bins,)
        assert np.all(result.bin_latency >= result.node_bin_seconds.min())
        report = result.report()
        assert report["nodes"] == 3 and report["bins"] == bins
        for key in ("bin_latency_seconds", "node_bin_latency_seconds",
                    "delay_cycles", "drop_fraction", "mean_sampling_rate"):
            assert key in report, key
        assert report["bin_latency_seconds"]["n"] == bins
        folded = result.metrics["profile"]
        assert folded["stages"]  # per-node stage profiles summed
        # The fleet's own per-bin series, not one summary per node.
        assert folded["bins"] == bins
        assert folded["bin_seconds"] == summarize(result.bin_latency)

    def test_fleet_budget_sums_node_budgets(self, small_trace):
        config = _config(cycles_per_second=8e7)
        fleet = FleetRunner(FleetTopology.uniform(4), config=config)
        result = fleet.run(small_trace, time_bin=0.5)
        budgets = [r.budget.cycles_per_second for r in result.node_results]
        assert budgets == [2e7] * 4
        assert result.federated.budget.cycles_per_second == \
            pytest.approx(8e7)

    def test_a_base_without_a_capacity_splits_the_default_host(self,
                                                              small_trace):
        """``cycles_per_second=None`` is the default host capacity, on the
        fleet as on one system: the nodes' weight-shares of it add up."""
        result = FleetRunner(
            FleetTopology.uniform(2),
            config=SystemConfig(queries="counter,flows")).run(small_trace)
        budgets = [r.budget.cycles_per_second for r in result.node_results]
        default = CycleBudget().cycles_per_second
        assert budgets == [default / 2] * 2
        assert sum(budgets) == pytest.approx(default)
        assert len(result.federated.bins) == len(small_trace.batch_list(0.1))

    @pytest.mark.skipif(not fork_start_available(),
                        reason="needs the fork start method")
    @pytest.mark.parametrize("topology", [
        pytest.param(FleetTopology.uniform(2), id="2-nodes-2-processes"),
        pytest.param(FleetTopology.uniform(8), id="8-nodes-2-processes"),
        pytest.param(FleetTopology(nodes=[
            NodeSpec("plain"), NodeSpec("sharded", overlay={"num_shards": 2}),
            NodeSpec("reactive", overlay={"mode": "reactive"})]),
            id="one-node-with-2-shards"),
    ])
    def test_fork_backend_matches_inprocess(self, small_trace, topology):
        """Resident worker processes change where a node session lives,
        not what it sees: the federated result and every node's are
        bit-identical, shedding included — and a node's result, folded in
        the parent from what it delivered, is what a session of the node's
        own config reports over the node's stream."""
        kinds = "counter,flows,top-k"
        capacity, _ = calibrate_capacity(kinds.split(","), small_trace)
        config = _config(queries=parse_query_specs(kinds),
                         cycles_per_second=0.4 * capacity)
        inproc = FleetRunner(topology, config=config,
                             backend="inprocess").run(small_trace,
                                                      time_bin=0.1)
        forked = FleetRunner(topology, config=config, n_workers=2,
                             backend="fork", respect_cores=False
                             ).run(small_trace, time_bin=0.1)
        assert (inproc.backend, forked.backend) == ("inprocess", "fork")
        assert inproc.federated.mean_sampling_rate() < 1.0
        assert_results_identical(inproc.federated, forked.federated,
                                 "federated")
        streams, _ = FleetRunner(topology, config=config).node_streams(
            small_trace, 0.1)
        for node, node_config, stream, mine, theirs in zip(
                topology.nodes, topology.node_configs(config), streams,
                inproc.node_results, forked.node_results):
            assert_results_identical(mine, theirs, node.name)
            alone = build_system(node_config).open_session(time_bin=0.1)
            for batch in stream:
                alone.ingest(batch)
            assert_results_identical(alone.close(), theirs, node.name)
        assert forked.node_bin_seconds.shape == inproc.node_bin_seconds.shape
        assert np.all(forked.node_bin_seconds > 0.0)
        assert forked.metrics["feature_sharing"] == \
            inproc.metrics["feature_sharing"]

    @pytest.mark.parametrize("backend", ["inprocess", "fork"])
    def test_finished_node_job_leaves_no_memos_behind(self, small_trace,
                                                      tmp_path, monkeypatch,
                                                      backend):
        """A part dies with its bin, and what a node made of it — sampled
        and filtered sub-batches, the counters memoised on them — dies with
        the part: wherever the node sessions live, nothing older than the
        previous bin is alive while a bin is worked on (the loop variables
        hold the previous one until they are rebound).  The recorders check
        that as they record, so they also check it inside the worker
        processes, which inherit them (and the disabled collector) at the
        fork; a failed check there fails the run."""
        if backend == "fork" and not fork_start_available():
            pytest.skip("needs the fork start method")
        # One query behind a filter: its counters hang off the bin's
        # filter result, not off the bin itself.
        queries = (QuerySpec("counter"), QuerySpec("flows", filter="tcp"))
        capacity, _ = calibrate_capacity(queries, small_trace)
        # Fresh bins: an in-memory trace keeps its own, parts and all.
        store = save_trace_store(small_trace, tmp_path / "store")
        made = []
        checks = multiprocessing.Value("i", 0)

        def record(obj, start_ts):
            starts = sorted({ts for ts, _ in made} | {start_ts})
            previous = starts[-2] if len(starts) > 1 else start_ts
            stale = [ref for ts, ref in made
                     if ts < previous and ref() is not None]
            assert not stale, f"{len(stale)} objects outlived their bin"
            made.append((start_ts, weakref.ref(obj)))
            with checks.get_lock():
                checks.value += 1
            return obj

        build = FeatureExtractor._batch_counters
        monkeypatch.setattr(
            FeatureExtractor, "_batch_counters", lambda extractor, batch:
            record(build(extractor, batch), batch.start_ts))
        select = Batch.select
        monkeypatch.setattr(
            Batch, "select", lambda batch, mask_or_index:
            record(select(batch, mask_or_index), batch.start_ts))
        fleet = FleetRunner(
            FleetTopology.uniform(4), n_workers=2, backend=backend,
            respect_cores=False, config=_config(
                feature_method="bitmap", cycles_per_second=0.4 * capacity,
                queries=queries))
        gc.collect()
        gc.disable()
        try:
            result = fleet.run(store, time_bin=0.1)
            # In the parent: the parts (``split`` selects them), and in
            # process everything the nodes made as well.
            assert made and not any(ref() for _, ref in made)
        finally:
            gc.enable()
        assert result.backend == backend
        assert result.federated.mean_sampling_rate() < 1.0
        # Counters were built where the nodes live, checked one by one.
        if backend == "fork":
            assert checks.value > len(made)
        else:
            assert checks.value == len(made)


# ----------------------------------------------------------------------
# Aggregation: metrics folding and Prometheus scraping
# ----------------------------------------------------------------------
class TestFleetAggregator:
    def test_fold_metrics_sums_and_recomputes_means(self):
        """The one fold a node and a fleet share: stage totals and sharing
        counters add up, a bin counts once, the per-bin series is the
        owner's own and the tenant totals are its result's."""
        node_a = {"profile": {"bins": 10,
                              "bin_seconds": {"p50": 0.1},
                              "stages": {"predict": {
                                  "calls": 10, "seconds_total": 1.0,
                                  "mean_seconds": 0.1}}},
                  "feature_sharing": {"hits": 5},
                  "tenants": {"count": 2, "query_cycles": {}}}
        node_b = {"profile": {"bins": 10,
                              "bin_seconds": {"p50": 0.3},
                              "stages": {"predict": {
                                  "calls": 30, "seconds_total": 2.0,
                                  "mean_seconds": 2.0 / 30}}},
                  "feature_sharing": {"hits": 2, "misses": 1},
                  "tenants": {"count": 2, "query_cycles": {}}}
        owner = SimpleNamespace(  # the owner's ExecutionResult
            tenant_cycle_totals=lambda: {"a": 5.0, "b": 7.0})
        folded = fold_metrics([node_a, node_b], [0.2, 0.4, 0.3], owner)
        stage = folded["profile"]["stages"]["predict"]
        assert stage["calls"] == 40
        assert stage["seconds_total"] == 3.0
        assert stage["mean_seconds"] == pytest.approx(3.0 / 40)
        assert folded["feature_sharing"] == {"hits": 7, "misses": 1}
        assert folded["profile"]["bins"] == 10
        assert folded["profile"]["bin_seconds"] == summarize([0.2, 0.4, 0.3])
        assert folded["tenants"] == {"count": 2,
                                     "query_cycles": {"a": 5.0, "b": 7.0}}
        del node_a["tenants"], node_b["tenants"]
        assert "tenants" not in fold_metrics([node_a, node_b], [], owner)


# ----------------------------------------------------------------------
# python -m repro.fleet
# ----------------------------------------------------------------------
class TestFleetCLI:
    ARGS = ["--workload", "flow-spike", "--duration", "1.0",
            "--workload-scale", "0.25", "--queries", "counter,flows",
            "--cycles-per-second", "5e7"]

    def test_json_report(self, capsys):
        assert fleet_main(["--nodes", "2", *self.ARGS, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nodes"] == 2
        assert report["partition_by"] == "flow-hash"
        assert "delay_cycles" in report and "bin_latency_seconds" in report

    def test_check_gate_passes_and_prints_verdict(self, capsys):
        assert fleet_main(["--nodes", "2", *self.ARGS, "--check"]) == 0
        out = capsys.readouterr().out
        assert "exactness check (PASS)" in out
        assert "counter" in out and "flows" in out

    @pytest.mark.skipif(not fork_start_available(),
                        reason="needs the fork start method")
    def test_store_replays_out_of_core_on_resident_workers(
            self, small_trace, tmp_path, capsys, monkeypatch):
        store = save_trace_store(small_trace, tmp_path / "store")
        monkeypatch.setattr(
            FleetRunner, "node_streams",
            lambda *args: pytest.fail("run() materialised the stream"))
        assert fleet_main([
            "--nodes", "3", "--trace", str(store.path), "--queries",
            "counter,flows", "--n-workers", "2", "--fleet-backend", "fork",
            "--check"]) == 0
        out = capsys.readouterr().out
        assert "backend=fork" in out and f"{len(small_trace)} packets" in out
        assert "exactness check (PASS)" in out

    def test_topology_file(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"nodes": 2}))
        assert fleet_main([str(path), *self.ARGS, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["nodes"] == 2

    def test_argument_errors_exit_2(self, tmp_path, capsys):
        assert fleet_main(self.ARGS) == 2  # neither topology nor --nodes
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"nodes": 2}))
        assert fleet_main([str(path), "--nodes", "2", *self.ARGS]) == 2
        assert fleet_main(["--nodes", "2", "--workload", "flow-spike",
                           "--duration", "1.0", "--queries", "counter",
                           "--overload", "1.5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("capacity", ["-5", "0"])
    def test_a_capacity_that_is_not_positive_exits_2_in_one_line(
            self, capsys, capacity):
        assert fleet_main(["--nodes", "2", "--workload", "flow-spike",
                           "--duration", "1.0", "--workload-scale", "0.25",
                           "--cycles-per-second", capacity]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --cycles-per-second must be positive")
        assert err.count("\n") == 1 and "Traceback" not in err
