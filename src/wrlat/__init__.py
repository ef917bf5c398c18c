"""Exact arithmetic for well-rounded ideal lattices from quadratic and
cyclotomic fields.

A planar lattice is well-rounded when its minimal vectors span the plane,
i.e. when it has at least four of them.  This package builds the lattices
attached to ideals of quadratic orders, reduces the associated binary
quadratic forms, counts minimal vectors exactly, and checks the analogous
statement for cyclotomic fields by direct enumeration.
"""

from .arith import (
    DeltaKind,
    QuadInt,
    QuadOrder,
    euler_phi,
    factorize,
    is_prime,
    is_squarefree,
    is_valid_radicand,
    mobius,
)
from .cyclo import (
    CycloElement,
    CycloField,
    CycloTheoremReport,
    cyclo_field,
    cyclotomic_poly,
    element,
    gram_principal,
    verify_cyclotomic_theorem,
    verify_principal_ideal_wr,
    zeta_power,
)
from .errors import InvariantViolation
from .families import (
    FamilyInstance,
    FamilyKind,
    family_stream,
    imaginary_instance,
    real_instance,
)
from .ideals import (
    IdealTriple,
    enumerate_ideals,
    hnf_from_generators,
)
from .planar import (
    BinaryForm,
    MinimalSet,
    form_from_ideal,
    gauss_reduce,
    is_similar,
    minimal_vectors,
)
from .survey import (
    SurveyConfig,
    SurveyRecord,
    TableRow,
    classify_triple,
    reference_tables,
    run_survey,
)
from .svp import (
    MAX_ENUM_DIM,
    GramMatrix,
    ShortVectorReport,
    enumerate_shortest,
    is_wr_nd,
    lll_reduce,
)

__version__ = "0.1.0"
