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
