"""Claims on the characteristic-class arithmetic of the obstruction
predicates."""

from . import _verdict, ob


def obstruct_identities():
    from fractions import Fraction

    for n in range(-1041, 1042, 7):
        p1sq = 960 * n
        d = ob.CharData(
            p1_squared_M=p1sq, p2_M=p1sq // 4, signature=p1sq // 60
        )
        if ob.ahat_eval(d) != Fraction(p1sq, 960):
            return _verdict(False, f"ahat at {n}")
        if ob.sgn_identity_check(d)["status"] != "pass":
            return _verdict(False, f"signature at {n}")
    return "ok"


def obstruct_su3_datum():
    d = ob.CharData.su3()
    ok = (
        ob.necessary_psu3(d)["all_pass"]
        and ob.su3_lift_check(d)["all_pass"]
        and ob.su3_lift_check(d)["ahat_in_40Z"]
        and ob.su3_lift_check(d)["sgn_in_640Z"]
        and ob.sgn_identity_check(d)["status"] == "pass"
    )
    return _verdict(ok)


def obstruct_failing_data():
    if ob.necessary_psu3(ob.CharData(euler_M=2))["euler_zero"]:
        return _verdict(False, "euler")
    if ob.necessary_psu3(ob.CharData(p2_M=1))["p1sq_eq_4p2"]:
        return _verdict(False, "pontrjagin")
    bad = ob.CharData(p1_squared_M=960, p2_M=240, signature=8)
    if ob.sgn_identity_check(bad)["status"] != "fail":
        return _verdict(False, "signature")
    r = ob.su3_lift_check(ob.CharData(p1_squared_M=36, p2_M=9))
    if r["p1sq_in_216Z"] or r["all_pass"]:
        return _verdict(False, "divisibility")
    return "ok"
