"""dimerforge: exact combinatorics of perfect matchings, spanning forests
and their bijections on embedded plane graphs."""

__version__ = "0.1.0"

from .matchings import (  # noqa: F401
    Matching,
    count_matchings,
    enumerate_matchings,
    kasteleyn_grid_count,
    squarish,
)
from .planar import (  # noqa: F401
    PlanarGraph,
    check_reflection_symmetry,
    parse_graph,
    validate_boundary_path,
)
from .refine import (  # noqa: F401
    dual_refinement,
    augment_with_leaves,
    section_instance,
    smash_in,
    symmetrize,
    trimmed_square,
)
