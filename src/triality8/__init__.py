"""Exact-arithmetic tools for the special geometries of an oriented inner
product space of dimension eight: the field tower Q(r3)[i], exterior
algebra, octonionic Clifford model, 3-form orbit classification, the
canonical invariant structures with their projections and elliptic
complex, torsion operators on spinor-valued forms, orthonormal-frame
differential geometry, characteristic-class predicates, and a claim-based
verification CLI.

Importing the package runs none of its submodules: each public name below
is resolved from its submodule on first use (PEP 562).  The front end,
the claim registry and the submodules that call another one only inside
functions hold it through ``lazy``, so a process runs only the modules
its command uses.
"""

import importlib
import importlib.util
import sys

# public name -> the submodule that defines it
_EXPORTS = {
    "CScalar": "scalars",
    "I": "scalars",
    "ONE": "scalars",
    "SQRT3": "scalars",
    "Scalar": "scalars",
    "Multivector": "exterior",
    "parse_form": "exterior",
    "OrbitClass": "orbits",
    "orbit_classify": "orbits",
    "canonical_omega": "structures",
    "canonical_rho": "structures",
    "sigma_canonical": "structures",
    "CharData": "obstructions",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    """A public name, or a submodule, imported now: a submodule that
    ``lazy`` left waiting runs, as under an import statement."""
    fullname = f"{__name__}.{name}"
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif importlib.util.find_spec(fullname) is not None:
        value = importlib.import_module(fullname)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


def lazy(name):
    """The submodule triality8.<name>, whose code runs when one of its
    attributes is first read (importlib.util.LazyLoader).  Until then it
    waits in sys.modules but not on the package, so that reaching it
    through the package (``from triality8 import claims``), or by an import
    statement, still runs it at once."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module
