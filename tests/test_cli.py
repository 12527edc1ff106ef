import json

import pytest

from triality8 import claims as cl
from triality8.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_verify_subset_json(capsys):
    rc, out, _ = run(capsys, "verify", "obstruct.*", "--format", "json")
    assert rc == 0
    rep = json.loads(out)
    assert set(rep) == {"claims", "summary"}
    assert rep["summary"]["pass"] == len(rep["claims"]) > 0
    for c in rep["claims"]:
        assert set(c) == {
            "id", "anchor", "status", "expected", "actual", "runtime_ms"
        }
        assert c["status"] == "pass"


def test_verify_md(capsys):
    rc, out, _ = run(capsys, "verify", "calib.equality")
    assert rc == 0
    assert "| calib.equality | pass |" in out


def test_verify_unknown_pattern(capsys):
    rc, _, err = run(capsys, "verify", "nope.*")
    assert rc == 2
    assert "no claims match" in err


def test_verify_deterministic_with_seed(capsys):
    rc1, out1, _ = run(capsys, "verify", "proj.*", "--format", "json", "--seed", "5")
    rc2, out2, _ = run(capsys, "verify", "proj.*", "--format", "json", "--seed", "5")
    assert rc1 == rc2 == 0
    strip = lambda s: [
        {k: v for k, v in c.items() if k != "runtime_ms"}
        for c in json.loads(s)["claims"]
    ]
    assert strip(out1) == strip(out2)


def test_list_claims(capsys):
    rc, out, _ = run(capsys, "list-claims")
    assert rc == 0
    for cid in cl.claim_ids():
        assert cid in out


def test_every_criterion_has_claims():
    for n in range(1, 14):
        assert cl.claims_for_criterion(n), f"criterion {n} uncovered"


def test_classify(tmp_path, capsys):
    f = tmp_path / "form.txt"
    f.write_text("e123")
    rc, out, _ = run(capsys, "classify", str(f))
    assert rc == 0
    rep = json.loads(out)
    assert rep["kind"] == "L3_sp1sp2"
    assert rep["orientation"] == "preserving"
    assert rep["witness"] is None

    f.write_text("e123 + e145")
    rc, out, _ = run(capsys, "classify", str(f))
    assert rc == 0
    rep = json.loads(out)
    assert rep["kind"] == "NotSupersymmetric"
    assert rep["jacobi_obstruction"] != "0"
    assert rep["witness"] == {"norm2": "2", "unit_scale": None,
                              "class": [2, 3, 4, 5], "sum": "-1"}

    # a failing verdict names its witness: the norm and the scale that
    # would make the form unit, or the smallest class whose sum is not zero
    for text, witness in (
        ("2 e123", {"norm2": "4", "unit_scale": "1/2"}),
        ("e123 + e456", {"norm2": "2", "unit_scale": None}),
        ("3/5 e123 + 4/5 e145", {"class": [2, 3, 4, 5], "sum": "-12/25"}),
        ("1/2 r3 e123 + 1/2 e145", {"class": [2, 3, 4, 5], "sum": "-1/4 r3"}),
    ):
        f.write_text(text)
        rc, out, _ = run(capsys, "classify", str(f))
        rep = json.loads(out)
        assert rc == 0 and rep["kind"] == "NotSupersymmetric"
        assert rep["witness"] == witness

    f.write_text("e12 + zz")
    rc, _, err = run(capsys, "classify", str(f))
    assert rc == 2 and "parse error" in err

    # a '*' needs a coefficient before it; the offset counts from the
    # start of the file
    f.write_text("\n* e123")
    rc, _, err = run(capsys, "classify", str(f))
    assert rc == 2 and "parse error" in err and "at offset 1" in err

    f.write_text("e12")
    rc, _, err = run(capsys, "classify", str(f))
    assert rc == 2 and "not a 3-form" in err

    rc, _, err = run(capsys, "classify", str(tmp_path / "missing.txt"))
    assert rc == 2

    # a file that is not UTF-8 is unreadable, as a missing one is
    f.write_bytes(b"e123 + \xff e145")
    rc, _, err = run(capsys, "classify", str(f))
    assert rc == 2 and err.startswith(f"cannot read {f}:")


def test_example_reports(capsys):
    rc, out, _ = run(capsys, "example", "psu3_nilmanifold", "--check",
                     "harmonic,ricci,classify")
    assert rc == 0
    rep = json.loads(out)
    assert rep["checks"]["harmonic"]["actual"] == "(True, True)"
    assert rep["checks"]["ricci"]["status"] == "ok"
    assert rep["checks"]["classify"]["actual"] == "L1_psu3, reversing"

    rc, out, _ = run(capsys, "example", "gibbons_hawking", "--check", "ricci")
    assert rc == 0
    rep = json.loads(out)
    assert rep["checks"]["ricci"]["status"] == "skipped"
    assert "constant structure" in rep["checks"]["ricci"]["reason"]

    rc, _, err = run(capsys, "example", "nope")
    assert rc == 2

    rc, _, err = run(capsys, "example", "psu3_nilmanifold", "--check", "bogus")
    assert rc == 2


def test_obstruct(tmp_path, capsys):
    rc, out, _ = run(capsys, "obstruct", "p1_squared_M=960", "p2_M=240",
                     "signature=16")
    assert rc == 0
    rep = json.loads(out)
    assert rep["ahat"] == "1"
    assert rep["signature_identity"]["status"] == "pass"

    f = tmp_path / "data.txt"
    f.write_text("p1_squared_M = 960\np2_M = 240\nsignature = 16\n# comment\n")
    rc, out, _ = run(capsys, "obstruct", str(f))
    assert rc == 0
    assert json.loads(out)["ahat"] == "1"

    rc, _, err = run(capsys, "obstruct", "bogus=1")
    assert rc == 2
    assert err == "bad characteristic data: unknown CharData field 'bogus'\n"

    rc, _, err = run(capsys, "obstruct", "p2_M=abc")
    assert rc == 2
    assert err == "bad characteristic data: bad integer for p2_M: 'abc'\n"

    rc, _, err = run(capsys, "obstruct", "p1_squared_M")
    assert rc == 2


def test_no_command(capsys):
    assert main([]) == 2


def test_claim_report_round_trip():
    r = cl.ClaimReport("x", "anchor", "pass", "ok", "ok", 3)
    assert cl.ClaimReport.from_dict(r.as_dict()).as_dict() == r.as_dict()
