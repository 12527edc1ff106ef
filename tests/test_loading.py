"""Lazy loading: each submodule runs the first time one of its names is
used, so a command runs only the modules it needs.  Every check starts a
fresh interpreter, which records (through an audit hook on exec) the
triality8 modules whose code ran."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PRELUDE = """
import contextlib, io, json, os, sys
ran = []

def _hook(event, args):
    # the import system runs the code of a module through exec(); the claim
    # index (claims/__init__.py) is recorded as claims, an area module of it
    # as claims.<area>
    if event == "exec" and getattr(args[0], "co_name", "") == "<module>":
        head, name = os.path.split(os.path.splitext(args[0].co_filename)[0])
        head, package = os.path.split(head)
        if package == "triality8":
            ran.append(name)
        elif package == "claims" and os.path.basename(head) == "triality8":
            ran.append("claims" if name == "__init__" else "claims." + name)

sys.addaudithook(_hook)
out = None
"""


def _fresh(code):
    """(modules that ran, out) after running code in a new interpreter;
    the code may leave a JSON-able value in `out`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")])
    script = _PRELUDE + code + "\nprint(json.dumps([ran, out]))\n"
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ran, out = json.loads(proc.stdout.splitlines()[-1])
    return set(ran), out


def _cli(*argv):
    return _fresh(
        "from triality8 import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    out = cli.main({list(argv)!r})\n"
    )


def test_imports_run_no_other_submodule():
    assert _fresh("import triality8")[0] == {"__init__"}
    assert _fresh("import triality8.cli")[0] == {"__init__", "cli"}
    # the claim classes derive from scalars.Frozen
    assert _fresh("import triality8.claims")[0] == {"__init__", "claims", "scalars"}


def _areas(ran):
    return {m for m in ran if m.startswith("claims.")}


def test_obstruct_claims_run_only_what_they_use():
    ran, code = _cli("verify", "obstruct.identities", "--format", "json")
    assert code == 0
    assert "obstructions" in ran
    assert not ran & {"clifford", "linalg", "orbits", "structures", "torsion", "frames"}
    # the index and the one area module of the claim
    assert "claims" in ran and _areas(ran) == {"claims.obstruct"}


def test_stabilizer_claim_runs_no_torsion_module():
    ran, code = _cli("verify", "stab.rho", "--format", "json")
    assert code == 0
    assert "structures" in ran
    assert not ran & {"torsion", "frames", "obstructions", "orbits"}
    assert "claims" in ran and _areas(ran) == {"claims.stab"}


def test_calibration_claim_runs_no_linear_algebra():
    ran, code = _cli("verify", "calib.equality", "--format", "json")
    assert code == 0
    assert "structures" in ran
    assert not ran & {"linalg", "clifford"}


def test_frame_connection_claim_runs_no_orbit_or_torsion_module():
    ran, code = _cli("verify", "frame.salamon_nabla", "--format", "json")
    assert code == 0
    assert "frames" in ran
    assert not ran & {"orbits", "torsion"}


def _rational_modules_after(code):
    """fractions and decimal, as far as code imports them in a fresh
    interpreter."""
    return _fresh("before = set(sys.modules)\n" + code +
                  "out = sorted({'fractions', 'decimal'} & set(sys.modules) - before)\n")[1]


def test_fractions_load_on_first_use():
    """Values are built from ints: the scalars module, an exact square root,
    a bool operand and a claim that prints no rational part import neither
    fractions nor decimal, also the claims that take square roots."""
    assert _rational_modules_after("import triality8.scalars\n") == []
    assert _rational_modules_after(
        "from triality8.scalars import Scalar\n"
        "assert str(Scalar(7, 4).sqrt()) == '2 + 1 r3'\n"
        "assert Scalar(True) + False == 1\n") == []
    for claim in ("stab.rho", "frame.gh", "orbit.classify_mixed"):
        assert _rational_modules_after(
            "from triality8 import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['verify', '{claim}', '--format', 'json']) == 0\n") == [], claim


def test_rational_backend_resolves_at_each_first_use():
    """Each entry that reads or takes a Fraction imports fractions when it
    is the first to run in the process; a square root, which needs none,
    works first as well."""
    for first_use, want in (
        ("str(Scalar(1, 3).b)", "3"),
        ("str(Scalar(Fraction(1, 3)))", "1/3"),
        ("str(Scalar(1) + Fraction(1, 2))", "3/2"),
        ("str(Scalar(7, 4).sqrt())", "2 + 1 r3"),
        ("type(Scalar(2).a) is Fraction", True),
    ):
        _, out = _fresh(
            "from triality8.scalars import Scalar\n"
            "loaded = 'fractions' in sys.modules\n"
            "from fractions import Fraction\n"
            f"out = [loaded, {first_use}]\n")
        assert out == [False, want], first_use


def test_list_claims_runs_no_area_module():
    ran, code = _cli("list-claims")
    assert code == 0
    assert ran == {"__init__", "cli", "claims", "scalars"}


def test_claims_of_one_area_run_one_area_module():
    ran, code = _cli("verify", "sigma.*", "--format", "json")
    assert code == 0
    assert _areas(ran) == {"claims.sigma"}


def test_obstruct_command_does_not_run_claims():
    ran, code = _cli("obstruct", "p1_squared_M=960", "p2_M=240", "signature=16")
    assert code == 0
    assert "obstructions" in ran and "claims" not in ran


def test_tracer_finds_every_module():
    """The benchmark tracer imports claims and cli (a claim process has
    imported cli already), reads the modules it patches from sys.modules,
    and must still see their calls."""
    _, out = _fresh(
        "from triality8 import cli\n"
        "from triality8 import claims\n"
        "from spans import MODULES, Tracer\n"
        "missing = [m for m in MODULES if f'triality8.{m}' not in sys.modules]\n"
        "t = Tracer()\n"
        "t.install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', 'obstruct.identities'])\n"
        "spans = t.report()['spans']\n"
        "t.uninstall()\n"
        "out = [missing, code, spans.get('obstructions.ahat_eval', [0])[0]]\n"
    )
    missing, code, ahat_calls = out
    assert missing == [] and code == 0 and ahat_calls > 0


def test_public_names_resolve():
    _, out = _fresh(
        "import triality8\n"
        "names = {n: type(getattr(triality8, n)).__name__ for n in triality8.__all__}\n"
        "ns = {}\n"
        "exec('from triality8 import *', ns)\n"
        "try:\n"
        "    triality8.no_such_name\n"
        "    missing = None\n"
        "except AttributeError as ex:\n"
        "    missing = str(ex)\n"
        # cli holds torsion lazily: the import statement finds it waiting
        "import triality8.cli, triality8.torsion\n"
        "sub = triality8.torsion.gkind.__module__\n"
        "out = [names, sorted(n for n in ns if not n.startswith('__')), missing, sub]\n"
    )
    names, star, missing, sub = out
    assert len(names) == 13
    assert names["Scalar"] == "type" and names["orbit_classify"] == "function"
    assert names["ONE"] == "Scalar"
    assert star == sorted(names)
    assert missing == "module 'triality8' has no attribute 'no_such_name'"
    assert sub == "triality8.torsion"


def test_single_tensor_operators_build_no_gkind():
    """dhat, dstar_hat, Dhat and L_op on single tensors read the kind table
    and the invariant form only: neither g-perp nor the stabilizer is
    built."""
    _, out = _fresh(
        "from triality8 import structures, torsion as to\n"
        "from triality8.exterior import Multivector\n"
        "e = Multivector.blade\n"
        "T = to.TorsionTensor.simple('PSU3', e(1), e(1, 8))\n"
        "S = to.TorsionTensor.simple('SP1SP2', e(2), e(1, 3))\n"
        "ops = [to.dhat(T), to.dstar_hat(T), to.Dhat(T, '+'), to.Dhat(T, '-'),\n"
        "       to.dhat(S), to.dstar_hat(S), to.Dhat(S, '+'), to.L_op(e(1, 2, 3))]\n"
        "try:\n"
        "    to.TorsionTensor('XYZ', [Multivector.zero()] * 8)\n"
        "    err = None\n"
        "except to.TorsionError as ex:\n"
        "    err = str(ex)\n"
        "out = [all(not op.is_zero() for op in ops), to.gkind.cache_info().currsize,\n"
        "       structures.stabilizer_cached.cache_info().currsize, err]\n"
    )
    assert out == [True, 0, 0, "unknown kind 'XYZ'"]


def test_package_imports_no_third_party_module():
    """Importing every submodule adds no top-level module outside the
    standard library and the package itself.  The snapshot is taken after
    start-up, because site .pth files may import packages of their own."""
    _, out = _fresh(
        "import importlib, pkgutil\n"
        "before = set(sys.modules)\n"
        "import triality8\n"
        "names = [m.name for m in pkgutil.walk_packages(triality8.__path__, 'triality8.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "out = [names, sorted({n.split('.')[0] for n in set(sys.modules) - before})]\n"
    )
    names, added = out
    assert {"triality8.torsion", "triality8.cli", "triality8.claims.frame"} <= set(names)
    allowed = set(sys.stdlib_module_names) | {"triality8"}
    assert [n for n in added if n not in allowed] == []
