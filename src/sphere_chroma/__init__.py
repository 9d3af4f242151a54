"""Sphere graphs of connect sums of S^1 x S^2, and the machinery that
colors them: Kneser-style partition graphs, exact chromatic numbers,
double-cover homology colorings, and Farey balls with fins."""

from .graphcore import (
    ChiCertificate,
    ChiUndecided,
    Coloring,
    Graph,
    SchemaError,
    chromatic_number_exact,
    clique_lower_bound,
    export_dimacs_kcolor,
    export_dot,
    from_json,
    greedy_dsatur,
    to_json,
    validate_coloring,
)
from .kneser import TwoBlockPartition, kg, nested, remove_singleton_partitions, total_kneser
from .spheres import (
    sphere_graph_holed,
    verify_lemma_sphere_kneser,
    verify_petersen_isomorphism,
)
from .covercolor import (
    CutSystemModel,
    count_colors,
    cover_h2,
    enumerate_double_covers,
    glued_sphere_graph,
    homology_class,
    lift_classes,
    used_color_count,
    verify_coloring_proper,
)
from .farey import add_fins, chi_farey_ball, farey_ball, parity_coloring

__all__ = [
    "Graph",
    "Coloring",
    "ChiCertificate",
    "ChiUndecided",
    "SchemaError",
    "validate_coloring",
    "greedy_dsatur",
    "clique_lower_bound",
    "chromatic_number_exact",
    "export_dimacs_kcolor",
    "export_dot",
    "to_json",
    "from_json",
    "TwoBlockPartition",
    "kg",
    "nested",
    "total_kneser",
    "remove_singleton_partitions",
    "sphere_graph_holed",
    "verify_lemma_sphere_kneser",
    "verify_petersen_isomorphism",
    "CutSystemModel",
    "glued_sphere_graph",
    "homology_class",
    "enumerate_double_covers",
    "cover_h2",
    "lift_classes",
    "verify_coloring_proper",
    "count_colors",
    "used_color_count",
    "farey_ball",
    "add_fins",
    "parity_coloring",
    "chi_farey_ball",
]
