"""Integer and rational predicates for the characteristic-class arithmetic
of topological reductions to the 8-dimensional adjoint geometry: the
A-hat genus, the signature identity, the necessary conditions on a closed
spin 8-manifold, and the divisibility tests for lifting the structure
group to SU(3).

Characteristic classes enter only through evaluated pairings (integers)
and boolean flags supplied by the caller; no cohomology is modelled.
"""

from __future__ import annotations

from .scalars import Frozen, Scalar


_FLAG_TEXTS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


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
            v = locals()[name]
            if not isinstance(v, bool):
                raise TypeError(f"{name} must be a bool")
            object.__setattr__(self, name, v)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)}" for n in self.__slots__)
        return f"CharData({fields})"

    @classmethod
    def su3(cls):
        """The SU(3) group manifold: trivial tangent bundle."""
        return cls()

    @classmethod
    def from_mapping(cls, items):
        """Build from a str->value mapping.  An integer field takes an int
        (not a bool) or the text of one; a flag takes a bool, 0, 1 or the
        text true/false, yes/no or 1/0.  Anything else, a float included,
        raises ValueError naming the field."""
        kw = {}
        for key, v in items.items():
            if key not in cls.__slots__:
                raise KeyError(f"unknown CharData field {key!r}")
            if key in ("p1_squared_M", "p2_M", "euler_M", "signature"):
                try:
                    value = int(v) if isinstance(v, str) else v
                except ValueError:
                    value = None
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"bad integer for {key}: {v!r}")
            else:
                if isinstance(v, str):
                    value = _FLAG_TEXTS.get(v.strip().lower())
                else:  # a bool, 0 or 1
                    value = bool(v) if isinstance(v, int) and v in (0, 1) else None
                if value is None:
                    raise ValueError(f"bad boolean for {key}: {v!r}")
            kw[key] = value
        return cls(**kw)

    def as_dict(self):
        return {n: getattr(self, n) for n in self.__slots__}


def _ahat_numerator(d):
    """5760 A[M] = 7 p1^2[M] - 4 p2[M], an integer."""
    return 7 * d.p1_squared_M - 4 * d.p2_M


def ahat_eval(d):
    """A-hat genus A[M] = (7 p1^2[M] - 4 p2[M]) / 5760, exact."""
    return Scalar.from_ints(_ahat_numerator(d), 0, 5760)


def sgn_identity_check(d):
    """Signature identity sgn(M) = 16 A[M] (hence sgn ≡ 0 mod 16), valid
    when 4 p2 = p1^2.  Returns an itemized verdict dict; the 'status' key
    is 'not applicable' when the precondition fails."""
    if 4 * d.p2_M != d.p1_squared_M:
        return {"status": "not applicable", "reason": "requires 4 p2 = p1^2"}
    eq = 360 * d.signature == _ahat_numerator(d)  # 16 / 5760 = 1 / 360
    mod = d.signature % 16 == 0
    return {
        "status": "pass" if (eq and mod) else "fail",
        "ahat": ahat_eval(d),
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
    n = _ahat_numerator(d)
    # 3 A[M] - p1^2[M]/216 = (9 n - 80 p1^2[M]) / 17280
    spin_index = 9 * n - 80 * d.p1_squared_M
    items = {
        "euler_zero": d.euler_M == 0,
        "p1sq_eq_4p2": d.p1_squared_M == 4 * d.p2_M,
        "p1_div_by_6": d.p1_div_by_6,
        "p1sq_in_216Z": d.p1_squared_M % 216 == 0,
        "spin_index_integral": spin_index % 17280 == 0,
    }
    items["all_pass"] = all(items.values())
    items["spin_index"] = Scalar.from_ints(spin_index, 0, 17280)
    items["ahat"] = ahat_eval(d)
    items["ahat_in_40Z"] = n % (40 * 5760) == 0
    items["sgn_in_640Z"] = d.signature % 640 == 0
    return items
