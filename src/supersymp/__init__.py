"""supersymp: exact symbolic engine for graded (super) symplectic geometry.

Subpackages cover truncated Grassmann arithmetic, polynomial superfunctions
and graded differential forms on coordinate charts, mixed symplectic
structures and their C-valued Poisson algebras, super Lie algebra cohomology
and central extensions, super Heisenberg coadjoint orbits, finite-cover Cech
machinery for D-prequantization, and the local model of the prequantum
connection with its operator representation.
"""

from .scalars import GaussianRational, Q
from .grassmann import DEFAULT_GENERATORS, GrassmannNumber, NotInvertible
from .charts import CFunction, Chart, SuperFunction, VectorField, vf_apply, vf_commutator
from .forms import (
    CKForm,
    KForm,
    contract,
    double,
    ext_d,
    lie_derivative,
    undouble,
    wedge,
)

__all__ = [
    "GaussianRational",
    "Q",
    "GrassmannNumber",
    "NotInvertible",
    "DEFAULT_GENERATORS",
    "Chart",
    "SuperFunction",
    "CFunction",
    "VectorField",
    "vf_apply",
    "vf_commutator",
    "KForm",
    "CKForm",
    "wedge",
    "ext_d",
    "contract",
    "lie_derivative",
    "double",
    "undouble",
]

__version__ = "0.1.0"
