"""The claim registry: an index whose entries name their bodies in the
area modules of triality8.claims.  Its data and the list-claims output are
pinned by a snapshot (registry_snapshot.json)."""

import inspect
import json
from pathlib import Path

from triality8 import cli
from triality8.claims import REGISTRY

SNAPSHOT = json.loads((Path(__file__).parent / "registry_snapshot.json")
                      .read_text(encoding="utf-8"))


def test_registry_matches_snapshot():
    got = {cid: {"anchor": c.anchor, "expected": c.expected,
                 "criteria": list(c.criteria), "seeded": c.seeded}
           for cid, c in REGISTRY.items()}
    assert got == SNAPSHOT["claims"]


def test_list_claims_matches_snapshot(capsys):
    assert cli.main(["list-claims"]) == 0
    out = capsys.readouterr().out
    assert out == "".join(line + "\n" for line in SNAPSHOT["list_claims"])


def test_every_body_resolves():
    """Each entry names a function of its area module; a seeded claim's
    body takes the seed, any other takes no argument.  No claim runs."""
    for cid, c in REGISTRY.items():
        assert c.module.startswith("triality8.claims."), cid
        fn = c.body()
        assert inspect.isfunction(fn) and fn.__module__ == c.module, cid
        params = list(inspect.signature(fn).parameters)
        assert params == (["seed"] if c.seeded else []), cid
