"""Tests for the declarative query-spec layer.

Covers :class:`repro.queries.QuerySpec` (parsing, hashing, round-trips,
filter expressions), the ``queries`` field of :class:`repro.SystemConfig`
(validation + ``to_dict``/``from_dict`` round-trip), the spec-driven build
paths (``config.build``, ``ShardedSystem``), what a coordinating parent
reads from the specs instead of building the queries, the
named query mixes and the ``python -m repro.replay --queries`` resolution
including JSON spec files.
"""

import json

import numpy as np
import pytest

from repro import replay
from repro.experiments import runner, scenarios
from repro.fleet import FleetRunner, FleetTopology
from repro.monitor.config import SystemConfig
from repro.monitor.packet import PROTO_TCP
from repro.queries import (QUERY_CLASSES, QuerySpec, load_query_specs,
                           make_query, parse_filter, parse_query_specs)
from tests.conftest import make_batch


class TestQuerySpec:
    def test_parse_shapes(self):
        name = QuerySpec.parse("flows")
        pair = QuerySpec.parse(("top-k", {"k": 3}))
        mapping = QuerySpec.parse({"kind": "counter", "filter": "tcp"})
        assert name.kind == "flows" and name.arguments == {}
        assert pair.kind == "top-k" and pair.arguments == {"k": 3}
        assert mapping.filter == "tcp"
        assert QuerySpec.parse(name) is name

    def test_specs_are_hashable_and_canonical(self):
        first = QuerySpec("top-k", {"k": 5, "name": "t"})
        second = QuerySpec("top-k", {"name": "t", "k": 5})
        assert first == second and hash(first) == hash(second)
        assert {first, second} == {first}

    def test_unknown_kind_fails_eagerly(self):
        with pytest.raises(KeyError, match="unknown query kind"):
            QuerySpec("nope")

    def test_bad_filter_fails_eagerly(self):
        with pytest.raises(ValueError, match="filter expression"):
            QuerySpec("counter", filter="bogus:1")

    def test_nested_container_kwargs_round_trip(self):
        """Dict- and list-valued kwargs must survive canonicalisation."""
        spec = QuerySpec("top-k", {"k": 5, "name": "t",
                                   "extras": {"a": 1, "b": [2, 3]}})
        assert spec.arguments == {"k": 5, "name": "t",
                                  "extras": {"a": 1, "b": [2, 3]}}
        assert QuerySpec.from_dict(spec.to_dict()) == spec
        assert hash(spec) == hash(QuerySpec.from_dict(spec.to_dict()))

    def test_dict_round_trip(self):
        spec = QuerySpec("pattern-search", {"name": "sig"}, filter="port:80")
        data = spec.to_dict()
        assert json.loads(json.dumps(data)) == data  # JSON-serialisable
        assert QuerySpec.from_dict(data) == spec
        with pytest.raises(ValueError, match="unknown QuerySpec fields"):
            QuerySpec.from_dict({"kind": "counter", "oops": 1})

    def test_build_applies_kwargs_and_filter(self):
        spec = QuerySpec("top-k", {"k": 3, "name": "top-3"}, filter="tcp")
        query = spec.build()
        assert query.k == 3 and query.name == "top-3"
        batch = make_batch(n=50, seed=1)
        batch.proto[:25] = PROTO_TCP
        batch.proto[25:] = 17
        assert len(query.filter.apply(batch)) == 25

    def test_instance_name_prefers_explicit_name(self):
        assert QuerySpec("counter").instance_name == "counter"
        assert QuerySpec("counter",
                         {"name": "c2"}).instance_name == "c2"

    def test_parse_query_specs_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate query instance"):
            parse_query_specs(("counter", "counter"))
        specs = parse_query_specs(
            ("counter", {"kind": "counter", "kwargs": {"name": "c2"}}))
        assert [spec.instance_name for spec in specs] == ["counter", "c2"]

    def test_comma_string_form(self):
        specs = parse_query_specs("counter, flows ,top-k")
        assert [spec.kind for spec in specs] == ["counter", "flows", "top-k"]

    def test_build_queries_returns_fresh_instances(self):
        config = SystemConfig(queries="counter,flows")
        first = config.build_queries()
        second = config.build_queries()
        assert [q.name for q in first] == ["counter", "flows"]
        assert first[0] is not second[0]


class TestWhatTheSpecsTellAParent:
    """A node on shard workers and a fleet never build a query in their
    own process: they read the mix's names and classes from the specs.
    These pin what that relies on."""

    @pytest.mark.parametrize("kind", sorted(QUERY_CLASSES))
    def test_a_built_query_carries_its_instance_name(self, kind):
        for spec in (QuerySpec(kind), QuerySpec(kind, {"name": "q00"})):
            query = spec.build()
            assert query.name == spec.instance_name
            assert type(query) is QUERY_CLASSES[spec.kind]

    def test_fleet_query_classes_are_the_built_queries_classes(self):
        config = runner.system_config(queries=(
            "counter", {"kind": "top-k", "kwargs": {"k": 5, "name": "q00"}},
            "flows"))
        fleet = FleetRunner(FleetTopology.uniform(2), config=config)
        classes = fleet.query_classes()
        assert classes == {query.name: type(query)
                           for query in config.build_queries()}
        assert list(classes) == ["counter", "q00", "flows"]

    def test_a_duplicate_name_is_refused_with_the_config(self, monkeypatch):
        from repro.monitor import sharding, workers

        def exists(*args, **kwargs):
            raise AssertionError("built before the config was refused")

        monkeypatch.setattr(sharding.ShardedSystem, "__init__", exists)
        monkeypatch.setattr(workers.ShardWorkerPool, "__init__", exists)
        twins = ("counter", {"kind": "flows", "kwargs": {"name": "counter"}})
        with pytest.raises(ValueError, match="duplicate query instance"):
            SystemConfig(queries=twins, num_shards=2)
        with pytest.raises(ValueError, match="duplicate query instance"):
            SystemConfig(num_shards=2).replace(queries=twins)


class TestFilterExpressions:
    @pytest.mark.parametrize("expression", [
        "tcp", "udp", "proto:17", "port:80", "port:80:dst", "port:80:src",
        "subnet:0/0", "size>=100",
    ])
    def test_expressions_build_filters(self, expression):
        packet_filter = parse_filter(expression)
        batch = make_batch(n=40, seed=2)
        mask = packet_filter(batch)
        assert mask.shape == (40,) and mask.dtype == bool

    def test_all_and_none_spec(self):
        assert parse_filter(None) is None
        assert parse_filter("all") is None
        assert parse_filter("") is None

    def test_port_filter_semantics(self):
        batch = make_batch(n=30, seed=3)
        batch.dst_port[:] = 81
        batch.dst_port[:10] = 80
        assert int(parse_filter("port:80:dst")(batch).sum()) == 10


class TestSystemConfigQueries:
    def test_config_canonicalises_specs(self):
        config = SystemConfig(queries=("counter", {"kind": "top-k",
                                                   "kwargs": {"k": 4}}))
        assert all(isinstance(spec, QuerySpec) for spec in config.queries)
        assert config.queries[1].arguments == {"k": 4}

    def test_config_round_trips_queries(self):
        config = SystemConfig(
            mode="predictive",
            queries=("flows",
                     {"kind": "top-k", "kwargs": {"k": 4, "name": "t4"}},
                     {"kind": "counter", "kwargs": {"name": "ct"},
                      "filter": "tcp"}))
        data = config.to_dict()
        assert json.loads(json.dumps(data))  # JSON-serialisable
        rebuilt = SystemConfig.from_dict(data)
        assert rebuilt == config
        assert rebuilt.queries == config.queries

    def test_config_without_queries_round_trips_unchanged(self):
        config = SystemConfig()
        assert config.queries is None
        assert SystemConfig.from_dict(config.to_dict()) == config

    def test_invalid_query_kind_fails_at_construction(self):
        with pytest.raises(KeyError, match="unknown query kind"):
            SystemConfig(queries=("not-a-query",))

    def test_build_uses_declarative_queries(self):
        config = runner.system_config(queries=("counter", "flows"))
        system = config.build()
        assert sorted(system.query_names) == ["counter", "flows"]

    def test_explicit_instances_override_declarative_queries(self):
        config = runner.system_config(queries=("counter", "flows"))
        system = config.build([make_query("trace")])
        assert system.query_names == ["trace"]

    def test_build_queries_returns_none_without_specs(self):
        assert SystemConfig().build_queries() is None


class TestSpecDrivenExecution:
    @pytest.fixture(scope="class")
    def trace(self):
        return scenarios.build_workload("cesca", seed=7, scale=0.2)

    def test_run_from_config_queries(self, trace):
        config = runner.system_config(
            queries=("counter",
                     {"kind": "top-k", "kwargs": {"k": 5, "name": "top-5"}}),
            cycles_per_second=5e7)
        result = config.build().run(trace)
        assert sorted(result.query_logs) == ["counter", "top-5"]

    def test_run_accepts_spec_sequences(self, trace):
        result = runner.system_config(
            queries=({"kind": "counter", "kwargs": {"name": "c-tcp"},
                      "filter": "tcp"}, "flows"),
            cycles_per_second=5e7).build().run(trace)
        assert sorted(result.query_logs) == ["c-tcp", "flows"]

    def test_spec_path_matches_name_path_bit_for_bit(self, trace):
        """Building from specs must not perturb execution results."""
        config = runner.system_config(seed=3, cycles_per_second=4e7)
        by_name = config.build(
            [make_query("counter"), make_query("flows")]).run(trace)
        by_spec = config.replace(queries=("counter", "flows")).build().run(
            trace)
        assert np.array_equal(by_name.series("query_cycles"),
                              by_spec.series("query_cycles"))
        for name, log in by_name.query_logs.items():
            assert by_spec.query_logs[name].results == log.results

    def test_sharded_system_from_config_queries(self, trace):
        from repro.monitor.sharding import ShardedSystem
        config = runner.system_config(cycles_per_second=5e7, num_shards=2,
                                      queries=("counter", "flows"))
        result = ShardedSystem(config=config).run(trace)
        assert sorted(result.query_logs) == ["counter", "flows"]

    def test_sharded_system_requires_some_query_source(self):
        from repro.monitor.sharding import ShardedSystem
        with pytest.raises(ValueError, match="query_factory"):
            ShardedSystem(config=runner.system_config(num_shards=2))


class TestQueryMixes:
    def test_all_mixes_parse(self):
        for name, mix in scenarios.QUERY_MIXES.items():
            specs = parse_query_specs(mix)
            assert specs, name

    def test_config_from_a_named_mix_is_hashable(self):
        """A mix of names and specs declares a config that can key a dict;
        an equal config built again finds the same entry."""
        config = runner.system_config(queries=scenarios.QUERY_MIXES["rankings"])
        assert [spec.instance_name for spec in config.queries] == \
            ["top-5", "top-20", "super-sources", "autofocus"]
        assert {config: 1}[runner.system_config(
            queries=scenarios.QUERY_MIXES["rankings"])] == 1


class TestReplayQueriesFlag:
    def test_resolves_comma_names(self):
        specs = replay.resolve_query_specs("counter,flows")
        assert [spec.kind for spec in specs] == ["counter", "flows"]

    def test_rejects_an_unknown_name_in_a_comma_list(self):
        with pytest.raises(KeyError, match="unknown query kind 'bogus'"):
            replay.resolve_query_specs("counter,bogus")

    def test_resolves_named_mix(self):
        specs = replay.resolve_query_specs("protocol-split")
        assert [spec.instance_name for spec in specs] == \
            ["counter-all", "counter-tcp", "counter-udp", "flows"]

    def test_mix_name_wins_over_same_named_file(self, tmp_path, monkeypatch):
        """A stray file in cwd must not shadow a documented mix name."""
        (tmp_path / "rankings").write_text("not json")
        monkeypatch.chdir(tmp_path)
        specs = replay.resolve_query_specs("rankings")
        assert [spec.kind for spec in specs] == \
            ["top-k", "top-k", "super-sources", "autofocus"]

    def test_resolves_json_file(self, tmp_path):
        path = tmp_path / "mix.json"
        path.write_text(json.dumps({"queries": [
            "flows", {"kind": "top-k", "kwargs": {"k": 2, "name": "t2"}}]}))
        specs = replay.resolve_query_specs(str(path))
        assert [spec.instance_name for spec in specs] == ["flows", "t2"]

    def test_json_file_rejects_bad_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nope": []}))
        with pytest.raises(ValueError, match="queries"):
            load_query_specs(path)

    def test_replay_end_to_end_with_spec_file(self, tmp_path, capsys):
        from repro.traffic import TrafficProfile, generate_trace, save_trace
        trace = generate_trace(
            TrafficProfile(duration=1.0, flow_arrival_rate=80.0,
                           with_payloads=False, name="replayspec"), seed=9)
        trace_path = save_trace(trace, tmp_path / "trace.npz")
        spec_path = tmp_path / "mix.json"
        spec_path.write_text(json.dumps([
            "flows", {"kind": "counter", "kwargs": {"name": "ct"},
                      "filter": "tcp"}]))
        code = replay.main([str(trace_path), "--queries", str(spec_path),
                            "--cycles-per-second", "5e7", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["outcome"]["intervals_by_query"] == \
            {"ct": 1, "flows": 1}

    def test_replay_end_to_end_with_names(self, tmp_path, capsys):
        from repro.traffic import TrafficProfile, generate_trace, save_trace
        trace = generate_trace(
            TrafficProfile(duration=1.0, flow_arrival_rate=80.0,
                           with_payloads=False, name="replaynames"), seed=9)
        trace_path = save_trace(trace, tmp_path / "trace.npz")
        code = replay.main([str(trace_path), "--queries", "flows,top-k",
                            "--cycles-per-second", "5e7", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert sorted(summary["outcome"]["intervals_by_query"]) == \
            ["flows", "top-k"]

    def test_replay_reports_unknown_query(self, tmp_path, capsys):
        from repro.traffic import TrafficProfile, generate_trace, save_trace
        trace = generate_trace(
            TrafficProfile(duration=0.5, flow_arrival_rate=50.0,
                           with_payloads=False, name="replaybad"), seed=9)
        trace_path = save_trace(trace, tmp_path / "trace.npz")
        code = replay.main([str(trace_path), "--queries", "bogus"])
        assert code == 2
        assert "unknown query" in capsys.readouterr().err