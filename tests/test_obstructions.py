from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from triality8 import obstructions as ob


def test_su3_datum():
    d = ob.CharData.su3()
    assert ob.ahat_eval(d) == 0
    assert ob.sgn_identity_check(d)["status"] == "pass"
    assert ob.necessary_psu3(d)["all_pass"]
    lift = ob.su3_lift_check(d)
    assert lift["all_pass"] and lift["ahat_in_40Z"] and lift["sgn_in_640Z"]


def test_ahat_examples():
    assert ob.ahat_eval(ob.CharData(p1_squared_M=960, p2_M=240)) == 1
    assert ob.ahat_eval(ob.CharData(p1_squared_M=5760, p2_M=1440)) == 6


def test_sgn_identity_cases():
    good = ob.CharData(p1_squared_M=960, p2_M=240, signature=16)
    assert ob.sgn_identity_check(good)["status"] == "pass"
    bad = ob.CharData(p1_squared_M=960, p2_M=240, signature=8)
    assert ob.sgn_identity_check(bad)["status"] == "fail"
    assert ob.sgn_identity_check(ob.CharData(p2_M=1))["status"] == "not applicable"


def test_necessary_failures():
    assert not ob.necessary_psu3(ob.CharData(euler_M=2))["euler_zero"]
    assert not ob.necessary_psu3(ob.CharData(p2_M=1))["p1sq_eq_4p2"]
    assert not ob.necessary_psu3(ob.CharData(spin=False))["all_pass"]


def test_lift_divisibility():
    r = ob.su3_lift_check(ob.CharData(p1_squared_M=36, p2_M=9))
    assert not r["p1sq_in_216Z"] and not r["all_pass"]
    for k in range(-3, 4):
        p1sq = 216 * 40 * k
        r = ob.su3_lift_check(ob.CharData(p1_squared_M=p1sq, p2_M=p1sq // 4))
        assert r["spin_index_integral"]
        assert r["ahat"] == 9 * k


@given(st.integers(-10**6 // 960, 10**6 // 960))
def test_identities_under_pontrjagin_relation(n):
    p1sq = 960 * n
    d = ob.CharData(p1_squared_M=p1sq, p2_M=p1sq // 4, signature=p1sq // 60)
    assert ob.ahat_eval(d) == Fraction(p1sq, 960)
    assert 16 * ob.ahat_eval(d) == Fraction(p1sq, 60)
    assert ob.sgn_identity_check(d)["status"] == "pass"


@given(
    st.integers(-500, 500), st.integers(-500, 500),
    st.integers(0, 1), st.booleans(),
)
def test_lift_implies_necessary_on_shared_items(p1q, p2, eul, div6):
    d = ob.CharData(
        p1_squared_M=4 * p1q, p2_M=p2, euler_M=2 * eul, p1_div_by_6=div6
    )
    lift = ob.su3_lift_check(d)
    nec = ob.necessary_psu3(d)
    for key in ("euler_zero", "p1sq_eq_4p2"):
        assert lift[key] == nec[key]
    if lift["all_pass"]:
        assert nec["euler_zero"] and nec["p1sq_eq_4p2"]


def test_chardata_validation():
    with pytest.raises(TypeError):
        ob.CharData(p1_squared_M="3")
    # a flag takes a bool only: no text, and no truthy int or float
    for name, value in (("spin", "false"), ("p1_div_by_6", 2), ("w4_squared_zero", 0.5)):
        with pytest.raises(TypeError, match=f"^{name} must be a bool$"):
            ob.CharData(**{name: value})
    with pytest.raises(KeyError):
        ob.CharData.from_mapping({"bogus": 1})
    d = ob.CharData.from_mapping({"p1_squared_M": "960", "spin": "false"})
    assert d.p1_squared_M == 960 and d.spin is False
    with pytest.raises(ValueError):
        ob.CharData.from_mapping({"spin": "maybe"})


def test_from_mapping_refuses_inexact_values():
    """A value from_mapping cannot read exactly raises ValueError naming its
    field: a float is not truncated, and a flag is not any truthy value."""
    for items in ({"p2_M": 240.7, "p1_squared_M": 960.2}, {"p1_squared_M": 960.0},
                  {"signature": True}, {"euler_M": "2.5"}, {"euler_M": None},
                  {"spin": 2}, {"spin": 1.0}, {"spin": None}, {"spin": "maybe"}):
        key = next(iter(items))
        with pytest.raises(ValueError, match=f"for {key}: "):
            ob.CharData.from_mapping(items)
    d = ob.CharData.from_mapping({"p1_squared_M": 960, "p2_M": " 240 ", "euler_M": "-2",
                                  "spin": 0, "p1_div_by_6": True, "w4_squared_zero": " No ",
                                  "w_classes_vanish_except_w4": 1})
    assert d.as_dict() == {"p1_squared_M": 960, "p2_M": 240, "euler_M": -2, "signature": 0,
                           "p1_div_by_6": True, "w_classes_vanish_except_w4": True,
                           "w4_squared_zero": False, "spin": False}
