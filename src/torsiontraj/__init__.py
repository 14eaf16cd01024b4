"""Exact torsion invariants of surface singularities.

The library computes, with exact integer and rational arithmetic, the
local torsion data of normal surface singularities (discriminant groups
and forms, link cohomology, monodromy cokernels), their Bockstein
shadows and transport kernels, and the Kunneth/Brauer torsion of product
varieties, assembling everything into trajectory tables.
"""

from .abgroup import (
    FGAbGroup,
    FinAbHom,
    cokernel_group,
    group_from_cokernel,
    hom_analyze,
    n_torsion,
    rationalize,
    scale_subgroup,
    tensor,
    tor,
)
from .bockstein import ShadowPackage, bo_direction_span, bockstein_image, shadow
from .errors import (
    CapabilityError,
    DimensionError,
    InvariantError,
    SingularMatrixError,
    TorsionTrajError,
    ValidationError,
)
from .intmat import IntMatrix, RatMatrix, SnfDecomposition, char_poly, det, rat_inverse, snf
from .lattice import (
    DiscriminantPackage,
    IntersectionLattice,
    abstract_package,
    cartan_matrix,
    chain_matrix,
    discriminant_package,
    forms_isomorphic,
    hj_expansion,
    star_matrix,
)
from .links import (
    LensSpace,
    PlumbingBoundary,
    Seifert,
    SpaceProfile,
    SphereProduct,
    lens_profile,
    link_profile,
    seifert_h1_order,
    stalk_profile,
    uct_cohomology_from_homology,
)
from .monodromy import (
    VariationResult,
    coxeter_element,
    milnor_number,
    odp_package,
    variation_cokernel,
)
from .products import (
    GateRefusal,
    ProductReport,
    brauer_comparison,
    builtin_profile,
    h0q_product,
    product_cohomology,
    product_profile,
)
from .trajectory import (
    SingularityModel,
    TrajectoryRow,
    TransportProblem,
    local_package,
    realization_crosscheck,
    stratum_cohomology,
    trajectory_row,
    trajectory_table,
    transport_kernel,
)

__version__ = "0.1.0"
