"""The one immutability idiom: every value type derives from Frozen, pickles
and deep-copies, and refuses assignment and deletion."""

import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import triality8
from triality8.claims import REGISTRY, ClaimReport
from triality8.clifford import Octonion, Spinor, SpinorMap
from triality8.exterior import Multivector
from triality8.frames import Connection, FrameAlgebra
from triality8.obstructions import CharData
from triality8.orbits import BracketTable, OrbitClass
from triality8.scalars import ONE, CScalar, Frozen, Scalar
from triality8.structures import Subspace, l2_vector, roots
from triality8.torsion import TorsionTensor, gkind

e = Multivector.blade

INSTANCES = {
    "Scalar": lambda: Scalar(1, 2),
    "CScalar": lambda: CScalar(Scalar(1, 2), Scalar(-3)),
    "Multivector": lambda: e(1, 2) * Scalar(0, 1) + e(3, 4, 5) * CScalar(1, 1),
    "Octonion": lambda: Octonion([1, 0, 2, 0, 0, 3, 0, -1]),
    "Spinor": lambda: Spinor("-", [ONE, CScalar(0, 1)] + [Scalar(0)] * 6),
    "SpinorMap": lambda: SpinorMap.identity("+"),
    "BracketTable": lambda: BracketTable({(1, 2, 3): ONE, (4, 5, 6): Scalar(0, 1)}),
    "OrbitClass": lambda: OrbitClass("L2_su2su2_u1", "+", (Scalar(1, 2), Scalar(3))),
    "Subspace": lambda: Subspace("L2", [l2_vector(e(1, 2)), l2_vector(e(3, 4))]),
    "RootData": lambda: roots("PSU3"),
    "GKind": lambda: gkind("SP1SP2"),
    "TorsionTensor": lambda: TorsionTensor.simple("PSU3", e(2), e(1, 8) * 3),
    "FrameAlgebra": lambda: FrameAlgebra({(1, 2): e(3), (2, 3): -e(1)}, note="so3"),
    "Connection": lambda: Connection([e(1, 2) * k for k in range(8)]),
    "CharData": lambda: CharData(p1_squared_M=4, signature=1, spin=False),
    "Claim": lambda: REGISTRY["torsion.z22"],
    "ClaimReport": lambda: ClaimReport("a.b", "anchor", "pass", "ok", "ok", 3),
}


def _slots(cls):
    return [n for k in cls.__mro__ for n in vars(k).get("__slots__", ())]


def _same(x, y):
    """Equality where the type defines it, slot by slot otherwise."""
    if type(x) is not type(y):
        return False
    if isinstance(x, Frozen) and type(x).__eq__ is object.__eq__:
        return all(_same(getattr(x, n), getattr(y, n)) for n in _slots(type(x)))
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    return x == y


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_round_trip_and_immutability(name):
    obj = INSTANCES[name]()
    assert type(obj).__name__ == name and isinstance(obj, Frozen)
    for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert clone is not obj
        assert _same(clone, obj)
        if type(obj).__eq__ is not object.__eq__:
            assert clone == obj
    slot = _slots(type(obj))[0]
    before = getattr(obj, slot)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(obj, slot, None)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        delattr(obj, slot)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        obj.unknown = 1
    assert getattr(obj, slot) is before


def test_frozen_is_the_only_setattr():
    """Immutability has one implementation: no other class of the package
    defines __setattr__ or __delattr__."""
    owners = set()
    for info in pkgutil.iter_modules(triality8.__path__):
        mod = importlib.import_module(f"triality8.{info.name}")
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if cls.__module__ == mod.__name__ and (
                "__setattr__" in vars(cls) or "__delattr__" in vars(cls)
            ):
                owners.add(cls)
    assert owners == {Frozen}

