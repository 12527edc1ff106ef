"""Integer and rational predicates for the characteristic-class arithmetic
of topological reductions to the 8-dimensional adjoint geometry: the
A-hat genus, the signature identity, the necessary conditions on a closed
spin 8-manifold, and the divisibility tests for lifting the structure
group to SU(3).

Characteristic classes enter only through evaluated pairings (integers)
and boolean flags supplied by the caller; no cohomology is modelled.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Frozen


class CharData(Frozen):
    """Characteristic data of a closed oriented 8-manifold: Pontrjagin
    pairings p1^2[M] and p2[M], the Euler number, the signature, and the
    class-level flags that cannot be recovered from pairings alone."""

    __slots__ = (
        "p1_squared_M",
        "p2_M",
        "euler_M",
        "signature",
        "p1_div_by_6",
        "w_classes_vanish_except_w4",
        "w4_squared_zero",
        "spin",
    )

    def __init__(
        self,
        p1_squared_M=0,
        p2_M=0,
        euler_M=0,
        signature=0,
        p1_div_by_6=True,
        w_classes_vanish_except_w4=True,
        w4_squared_zero=True,
        spin=True,
    ):
        for name in ("p1_squared_M", "p2_M", "euler_M", "signature"):
            v = locals()[name]
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"{name} must be an integer")
            object.__setattr__(self, name, v)
        for name in (
            "p1_div_by_6",
            "w_classes_vanish_except_w4",
            "w4_squared_zero",
            "spin",
        ):
            object.__setattr__(self, name, bool(locals()[name]))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)}" for n in self.__slots__)
        return f"CharData({fields})"

    @classmethod
    def su3(cls):
        """The SU(3) group manifold: trivial tangent bundle."""
        return cls()

    @classmethod
    def from_mapping(cls, items):
        """Build from a str->value mapping (values may be strings)."""
        kw = {}
        for key, v in items.items():
            if key not in cls.__slots__:
                raise KeyError(f"unknown CharData field {key!r}")
            if key in ("p1_squared_M", "p2_M", "euler_M", "signature"):
                kw[key] = int(v)
            else:
                if isinstance(v, str):
                    low = v.strip().lower()
                    if low in ("true", "1", "yes"):
                        v = True
                    elif low in ("false", "0", "no"):
                        v = False
                    else:
                        raise ValueError(f"bad boolean for {key}: {v!r}")
                kw[key] = bool(v)
        return cls(**kw)

    def as_dict(self):
        return {n: getattr(self, n) for n in self.__slots__}


def ahat_eval(d):
    """A-hat genus A[M] = (7 p1^2[M] - 4 p2[M]) / 5760, exact."""
    return Fraction(7 * d.p1_squared_M - 4 * d.p2_M, 5760)


def sgn_identity_check(d):
    """Signature identity sgn(M) = 16 A[M] (hence sgn ≡ 0 mod 16), valid
    when 4 p2 = p1^2.  Returns an itemized verdict dict; the 'status' key
    is 'not applicable' when the precondition fails."""
    if 4 * d.p2_M != d.p1_squared_M:
        return {"status": "not applicable", "reason": "requires 4 p2 = p1^2"}
    ahat = ahat_eval(d)
    eq = Fraction(d.signature) == 16 * ahat
    mod = d.signature % 16 == 0
    return {
        "status": "pass" if (eq and mod) else "fail",
        "ahat": ahat,
        "signature_equals_16_ahat": eq,
        "signature_div_16": mod,
    }


def necessary_psu3(d):
    """Necessary conditions for a topological reduction of a closed spin
    8-manifold: all Stiefel-Whitney classes vanish except possibly w4,
    w4^2 = 0, e[M] = 0 and p1^2 = 4 p2.  Itemized pass/fail."""
    items = {
        "euler_zero": d.euler_M == 0,
        "p1sq_eq_4p2": d.p1_squared_M == 4 * d.p2_M,
        "w_classes_vanish_except_w4": d.w_classes_vanish_except_w4,
        "w4_squared_zero": d.w4_squared_zero,
        "spin": d.spin,
    }
    items["all_pass"] = all(items.values())
    return items


def su3_lift_check(d):
    """Conditions for lifting the structure group to SU(3): the necessary
    items plus p1 divisible by 6, p1^2[M] in 216Z, and integrality of the
    twisted spin index 3 A[M] - p1^2[M]/216.  The stronger consequences
    A[M] in 40Z and sgn(M) in 640Z are reported informationally."""
    ahat = ahat_eval(d)
    spin_index = 3 * ahat - Fraction(d.p1_squared_M, 216)
    items = {
        "euler_zero": d.euler_M == 0,
        "p1sq_eq_4p2": d.p1_squared_M == 4 * d.p2_M,
        "p1_div_by_6": d.p1_div_by_6,
        "p1sq_in_216Z": d.p1_squared_M % 216 == 0,
        "spin_index_integral": spin_index.denominator == 1,
    }
    items["all_pass"] = all(items.values())
    items["spin_index"] = spin_index
    items["ahat"] = ahat
    items["ahat_in_40Z"] = ahat.denominator == 1 and ahat.numerator % 40 == 0
    items["sgn_in_640Z"] = d.signature % 640 == 0
    return items
