"""What a cold `import qmodular, qmodular.cli` loads, checked in a fresh
interpreter started with -S, so that no site hook has loaded a module
before the import does.

The import must load none of HEAVY and must not build the identity
registry; a CLI reduce request after it must not either.  The registry is
built by the first `verify` (or check, check_all, names), and json by the
first JSON document.  Run as a script, this file makes the same checks,
prints what the import loaded and exits 1 on a failed check:

    PYTHONPATH=src python tests/test_import.py
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("dataclasses", "inspect", "typing", "json")

# Runs in the fresh interpreter; prints one dict literal of facts.
PROBE = r"""
import contextlib, io, sys
before = set(sys.modules)

def heavy():
    return sorted((set(sys.modules) - before) & set(HEAVY))

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = qmodular.cli.main(list(argv))
    return code, out.getvalue()

import qmodular, qmodular.cli
facts = {"loaded": sorted(set(sys.modules) - before), "heavy_at_import": heavy()}
identities = sys.modules["qmodular.identities"]
facts["built_at_import"] = "REGISTRY" in vars(identities)
facts["reduce"] = run("reduce", "--expr", "E4^2", "--level", "1", "--weight", "8")
facts["heavy_after_reduce"] = heavy()
facts["built_after_reduce"] = "REGISTRY" in vars(identities)
facts["verify"] = run("verify", "--identity", "mod1", "--prec", "40")
facts["registry_size"] = len(identities.REGISTRY)
facts["expand_json"] = run("expand", "--expr", "E4", "--prec", "3", "--format", "json")[0]
facts["json_loaded"] = "json" in sys.modules
star = {}
exec("from qmodular import *", star)
facts["star"] = star.get("check") is identities.check and star.get("check_all") is identities.check_all
facts["same_module"] = qmodular.identities is sys.modules["qmodular.identities"]
facts["no_such_name"] = hasattr(qmodular, "no_such_name") or hasattr(identities, "no_such_name")
print(repr(facts))
"""


def probe() -> dict:
    """The facts PROBE gathers, from a fresh `python -S` interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = f"HEAVY = {HEAVY!r}\n{PROBE}"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return ast.literal_eval(out.stdout)


def problems(facts: dict) -> list:
    """Every check the facts fail, as one line each."""
    out = []
    for key in ("heavy_at_import", "heavy_after_reduce"):
        if facts[key]:
            out.append(f"{key}: {', '.join(facts[key])}")
    for key in ("built_at_import", "built_after_reduce"):
        if facts[key]:
            out.append(f"{key}: the identity registry was built")
    if facts["reduce"] != (0, "1\n"):
        out.append(f"reduce answered {facts['reduce']!r}")
    if facts["verify"] != (0, "mod1: PASS (below q^40)\n"):
        out.append(f"verify answered {facts['verify']!r}")
    if facts["registry_size"] != 37:
        out.append(f"the registry holds {facts['registry_size']} identities, not 37")
    if facts["expand_json"] != 0 or not facts["json_loaded"]:
        out.append("expand --format json did not exit 0 through json")
    if not facts["star"]:
        out.append("from qmodular import * does not bind check and check_all")
    if not facts["same_module"]:
        out.append("qmodular.identities is not the loaded module")
    if facts["no_such_name"]:
        out.append("hasattr finds a name that does not exist")
    return out


def test_a_cold_import_loads_only_what_a_request_needs():
    facts = probe()
    assert problems(facts) == []
    assert "qmodular.identities" in facts["loaded"]


if __name__ == "__main__":
    facts = probe()
    print("newly loaded by `import qmodular, qmodular.cli` (python -S):")
    print(" ", " ".join(facts["loaded"]))
    found = problems(facts)
    for line in found:
        print("FAIL", line)
    print("FAIL" if found else "ok: none of " + ", ".join(HEAVY) + ", and no identity registry")
    sys.exit(1 if found else 0)
