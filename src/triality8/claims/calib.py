"""Claims on the calibration forms: equality on the model planes and the
sampled float bound."""

from ..scalars import ONE
from . import DEFAULT_SEED, _verdict, cal, e


def calib_equality():
    ok = (
        cal.calibration("PSU3", [e(1), e(2), e(3)]) == ONE
        and cal.calibration("SP1SP2", [e(1), e(2), e(3), -e(4)]) == ONE
    )
    return _verdict(ok)


def calib_bound(seed=DEFAULT_SEED):
    maxima = cal.calibration_maxima({"PSU3": 10000, "SP1SP2": 10000}, seed=seed)
    m1, m2 = maxima["PSU3"], maxima["SP1SP2"]
    return _verdict(m1 <= 1 + 1e-9 and m2 <= 1 + 1e-9, f"{m1} {m2}")
