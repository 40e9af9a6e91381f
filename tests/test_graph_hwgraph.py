"""Tests for HW-graph construction (paper §4.1, Figures 7-8)."""

import json

from repro.extraction.intelkey import FieldSpec, IntelKey, IntelMessage
from repro.extraction.idvalue import FieldRole
from repro.graph.hwgraph import HWGraphBuilder
from repro.graph.render import render_summary, render_tree, to_json


def make_key(key_id, entities, natural=True):
    return IntelKey(
        key_id=key_id,
        template=tuple(key_id.split()),
        sample=key_id,
        entities=tuple(entities),
        natural_language=natural,
    )


def make_msg(key_id, t, identifiers=None):
    message = IntelMessage(
        key_id=key_id, timestamp=t, session_id="s", message=key_id
    )
    if identifiers:
        message.identifiers = {k: list(v) for k, v in identifiers.items()}
    return message


def figure7_builder(sessions=6):
    """A synthetic system realising Figure 7's relations:

    * group a is the parent of b and d; b is BEFORE d; c runs PARALLEL
      with a.
    """
    keys = {
        "KA": make_key("KA", ["alpha service"]),
        "KB": make_key("KB", ["beta worker"]),
        "KD": make_key("KD", ["delta handler"]),
        "KC": make_key("KC", ["gamma monitor"]),
    }
    builder = HWGraphBuilder(keys)
    for i in range(sessions):
        builder.train_session([
            make_msg("KA", 0.0),
            make_msg("KC", 1.0),
            make_msg("KB", 2.0),
            make_msg("KB", 3.0),
            make_msg("KD", 5.0),
            make_msg("KD", 6.0),
            make_msg("KC", 20.0),
            make_msg("KA", 10.0),
        ])
    return builder


class TestFigure7Hierarchy:
    def test_parent_child_edges(self):
        graph = figure7_builder().build()
        alpha = graph.groups["alpha service"]
        assert set(alpha.children) == {"beta worker", "delta handler"}
        assert graph.groups["beta worker"].parent == "alpha service"

    def test_parallel_group_is_root(self):
        graph = figure7_builder().build()
        assert graph.groups["gamma monitor"].parent is None
        assert "gamma monitor" in graph.roots

    def test_sibling_before_edge(self):
        graph = figure7_builder().build()
        beta = graph.groups["beta worker"]
        assert "delta handler" in beta.before

    def test_roots(self):
        graph = figure7_builder().build()
        assert set(graph.roots) == {"alpha service", "gamma monitor"}


class TestCriticalGroups:
    def test_multi_key_group_is_critical(self):
        keys = {
            "K1": make_key("K1", ["block"]),
            "K2": make_key("K2", ["block manager"]),
        }
        builder = HWGraphBuilder(keys)
        builder.train_session([make_msg("K1", 0.0), make_msg("K2", 1.0)])
        graph = builder.build()
        assert graph.groups["block"].critical

    def test_repeating_key_group_is_critical(self):
        # §6.3 criterion 2: one Intel Key with multiple messages in a
        # single session.
        keys = {"K1": make_key("K1", ["fetcher"])}
        builder = HWGraphBuilder(keys)
        builder.train_session(
            [make_msg("K1", float(i)) for i in range(4)]
        )
        graph = builder.build()
        assert graph.groups["fetcher"].critical

    def test_single_key_single_message_not_critical(self):
        keys = {"K1": make_key("K1", ["fetcher"])}
        builder = HWGraphBuilder(keys)
        builder.train_session([make_msg("K1", 0.0)])
        graph = builder.build()
        assert not graph.groups["fetcher"].critical


class TestKeyGrouping:
    def test_non_nl_keys_excluded(self):
        keys = {
            "K1": make_key("K1", ["task"]),
            "K2": make_key("K2", ["kvdump"], natural=False),
        }
        builder = HWGraphBuilder(keys)
        graph = builder.graph
        assert "K2" in graph.ignored_keys
        assert graph.key_groups["K2"] == set()

    def test_key_maps_to_groups_of_its_entities(self):
        keys = {
            "K1": make_key("K1", ["block", "task"]),
        }
        builder = HWGraphBuilder(keys)
        assert builder.graph.key_groups["K1"] == {"block", "task"}

    def test_untrained_groups_dropped_at_build(self):
        keys = {
            "K1": make_key("K1", ["task"]),
            "K2": make_key("K2", ["phantom entity"]),
        }
        builder = HWGraphBuilder(keys)
        builder.train_session([make_msg("K1", 0.0)])
        graph = builder.build()
        assert "phantom entity" not in graph.groups


class TestSubroutinesInGraph:
    def test_identifier_subroutines_trained(self):
        keys = {
            "K1": make_key("K1", ["task"]),
            "K2": make_key("K2", ["task"]),
        }
        builder = HWGraphBuilder(keys)
        builder.train_session([
            make_msg("K1", 0.0, {"TID": ["1"]}),
            make_msg("K2", 1.0, {"TID": ["1"]}),
            make_msg("K1", 0.5, {"TID": ["2"]}),
            make_msg("K2", 1.5, {"TID": ["2"]}),
        ])
        graph = builder.build()
        model = graph.groups["task"].model
        sub = model.subroutines[("TID",)]
        assert sub.instance_count == 2
        assert sub.critical_keys == {"K1", "K2"}


class TestRendering:
    def test_tree_marks_critical(self):
        graph = figure7_builder().build()
        tree = render_tree(graph)
        assert "alpha service" in tree

    def test_summary_counts(self):
        graph = figure7_builder(sessions=3).build()
        summary = render_summary(graph)
        assert "groups: 4" in summary
        assert "training sessions: 3" in summary

    def test_json_round_trips(self):
        graph = figure7_builder().build()
        data = json.loads(to_json(graph))
        assert set(data["groups"]) == {
            "alpha service", "beta worker", "delta handler",
            "gamma monitor",
        }
        assert data["groups"]["beta worker"]["parent"] == "alpha service"
