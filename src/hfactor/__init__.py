"""hfactor: exact perfect H-packing toolkit.

Chromatic invariants and packing thresholds of pattern graphs, extremal
constructions witnessing their tightness, an exact-cover solver for
perfect-packing decisions, a Hall-theorem packer for almost-complete
multipartite hosts, and the tidy-and-expand pipeline tying them
together at desk scale.
"""

from .constructions import (
    CanonicalSpec,
    apex_multipartite,
    bottle_graph,
    canonical_graph,
    canonical_packing,
    canonical_partition,
    kr_minus,
    kr_minus_extremal,
    kr_minus_threshold,
    multipartite_extremal,
    remainder_pattern,
    remainder_pattern_order,
    sparse_class_size,
)
from .errors import (
    BadParameter,
    BadSizes,
    DegenerateSet,
    EmptyGraph,
    HFactorError,
    InternalError,
    OverlappingSets,
    PatternTooLarge,
    Stuck,
    Timeout,
)
from .graphs import (
    Graph,
    Partition,
    VertexSet,
    complete_graph,
    complete_multipartite,
    density_between,
    density_within,
    empty_graph,
    induced,
    min_degree,
    read_edge_list,
    write_edge_list,
)
from .hall import (
    HallWitness,
    PackFailure,
    StarPacking,
    contract_stars,
    default_tolerance,
    pack_apex_multipartite,
    star_pack,
)
from .invariants import (
    ColouringProfile,
    HcfReport,
    chromatic_number,
    colouring_profile,
    critical_chromatic_number,
    hcf_report,
    threshold_coefficient,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    TauLadder,
    build_auxiliary,
    default_ladder,
    expand_packing,
    find_sparse_sets,
    pack_remainder_class,
    run_pipeline,
    threshold_table,
)
from .solver import (
    Copy,
    Packing,
    enumerate_copies,
    find_perfect_packing,
    max_packing_size,
    packing_defect,
    verify_packing,
)
from .tidy import (
    TidyResult,
    VertexClassification,
    adjust_for_divisibility,
    classify,
    remove_proportional_batch,
    swap_bad_exceptional,
    tidy,
)

__version__ = "0.1.0"
