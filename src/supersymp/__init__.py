"""supersymp: exact symbolic engine for graded (super) symplectic geometry.

Subpackages cover truncated Grassmann arithmetic, polynomial superfunctions
and graded differential forms on coordinate charts, mixed symplectic
structures and their C-valued Poisson algebras, super Lie algebra cohomology
and central extensions, super Heisenberg coadjoint orbits, finite-cover Cech
machinery for D-prequantization, and the local model of the prequantum
connection with its operator representation.
"""

# name -> submodule; each is imported on first access (PEP 562), so that
# `import supersymp.cli` loads only what the command it runs needs
_EXPORTS = {
    "GaussianRational": "scalars",
    "Q": "scalars",
    "GrassmannNumber": "grassmann",
    "NotInvertible": "grassmann",
    "DEFAULT_GENERATORS": "grassmann",
    "Chart": "charts",
    "SuperFunction": "charts",
    "CFunction": "charts",
    "VectorField": "charts",
    "vf_apply": "charts",
    "vf_commutator": "charts",
    "KForm": "forms",
    "CKForm": "forms",
    "wedge": "forms",
    "ext_d": "forms",
    "contract": "forms",
    "lie_derivative": "forms",
    "double": "forms",
    "undouble": "forms",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    globals()[name] = value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value
