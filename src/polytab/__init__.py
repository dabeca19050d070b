"""polytab: exact tabulation of integer polynomials with prescribed
factorization partition, bad reduction inside a fixed prime set, and unit
values at the three marked points."""

from .smooth import (
    PrimeSet,
    decompose_power,
    is_unit_in,
    smooth_numbers_up_to,
)
from .poly import (
    MembershipReport,
    NormalizedPoly,
    check_membership,
    discriminant,
    factor_small,
    normalize,
    s3_orbit,
    s3_transform,
    special_values,
)
from .abc_search import (
    AbcPoint,
    SearchCertificate,
    cubic_classes,
    delta_classes,
    search_abc,
)
from .vertices import (
    Vertex,
    VertexSet,
    build_degree1,
    build_degree2,
    build_degree3,
    build_vertex_set,
    ingest_units,
    roots_of_F,
)
from .cliques import (
    CompatGraph,
    PartitionTable,
    build_graph,
    count_u_nu,
    enumerate_cliques,
    pgl2_packets,
    tabulate,
)
from .generators import (
    RationalCover,
    SeriesCoefficients,
    builtin_covers,
    cyclo_series,
    fractal_family,
    pullback,
    verify_named,
)
from .budget import Budget, BudgetExceededError

__version__ = "0.1.0"
