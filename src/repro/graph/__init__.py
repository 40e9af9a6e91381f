"""HW-graph modelling: entity grouping, subroutines, lifespans, hierarchy."""

from .grouping import (
    EntityGroup,
    GroupingResult,
    group_entities,
    longest_common_phrase,
    longest_common_word_substring,
)
from .hwgraph import (
    GroupNode,
    GroupSessionStats,
    HWGraph,
    HWGraphBuilder,
    SessionStats,
    session_group_stats,
)
from .lifespan import (
    AFTER,
    BEFORE,
    CHILD,
    PARALLEL,
    PARENT,
    Lifespan,
    RelationMatrix,
    session_lifespans,
    session_relations,
)
from .render import dump_json, render_summary, render_tree, to_json
from .subroutine import (
    Subroutine,
    SubroutineInstance,
    SubroutineModel,
    SubroutineUpdate,
    assign_instances,
    session_updates,
)

__all__ = [
    "AFTER",
    "BEFORE",
    "CHILD",
    "EntityGroup",
    "GroupNode",
    "GroupSessionStats",
    "GroupingResult",
    "HWGraph",
    "HWGraphBuilder",
    "Lifespan",
    "SessionStats",
    "PARALLEL",
    "PARENT",
    "RelationMatrix",
    "Subroutine",
    "SubroutineInstance",
    "SubroutineModel",
    "SubroutineUpdate",
    "assign_instances",
    "dump_json",
    "group_entities",
    "session_group_stats",
    "session_updates",
    "longest_common_phrase",
    "longest_common_word_substring",
    "render_summary",
    "render_tree",
    "session_lifespans",
    "session_relations",
    "to_json",
]
