"""The serving path loads only the serving path.

``gendp-serve`` imports :mod:`repro.cli`, :mod:`repro.serve.server` and
:mod:`repro.engine` before it listens.  None of that needs numpy (it
loads with the shm ring, :mod:`repro.serve.layout`), the cycle
simulator (:mod:`repro.dpax`), the mapping generators
(:mod:`repro.mapping`) or the fault-campaign drivers.  Each probe runs
in a fresh interpreter, so what other tests imported cannot hide a
leak, with a finder at the head of ``sys.meta_path`` that records the
stack of every import of a forbidden module: a failure names the
import chain (file:line of each ``repro`` frame) that loaded it.  An
``ast`` scan keeps the engine, the static analysis and the guard from
importing the simulator at all: the datapath constants they check
against live in :mod:`repro.datapath`.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
from typing import Dict, List

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Modules the serving path must not load, submodules included.
FORBIDDEN = (
    "numpy",
    "repro.dpax",
    "repro.mapping",
    "repro.faults.campaign",
    "repro.faults.chaos",
)

#: Runs the code in ``sys.argv[1]`` with the witness installed, then
#: prints each forbidden module in ``sys.modules`` with its chain.
PROBE = """
import json, os, sys, traceback

FORBIDDEN, SRC = %r, %r
chains = {}


def forbidden(name):
    return any(name == root or name.startswith(root + ".") for root in FORBIDDEN)


class Witness:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if forbidden(name) and name not in chains:
            chains[name] = [
                "%%s:%%d" %% (os.path.relpath(frame.filename, SRC), frame.lineno)
                for frame in traceback.extract_stack()[:-1]
                if frame.filename.startswith(SRC)
            ]
        return None


sys.meta_path.insert(0, Witness())
try:
    exec(sys.argv[1])
finally:
    loaded = sorted(name for name in sys.modules if forbidden(name))
    print(json.dumps({name: chains.get(name, []) for name in loaded}))
""" % (FORBIDDEN, str(SRC))

IMPORTS = "import repro.cli, repro.serve.server, repro.engine"

#: A whole server start: all five kernels warm on the shm transport,
#: listening, then shut down at once.
SERVE = """
import tempfile
from repro.cli import serve_main
with tempfile.TemporaryDirectory() as directory:
    code = serve_main([
        "--unix-socket", os.path.join(directory, "serve.sock"),
        "--transport", "shm", "--workers", "2",
        "--warm-kernels", "bsw,pairhmm,lcs,dtw,chain", "--duration", "0",
    ])
assert code == 0, code
"""


def _loaded(code: str) -> Dict[str, List[str]]:
    """Forbidden module -> its import chain, after running *code*."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report(loaded: Dict[str, List[str]]) -> str:
    return "\n".join(
        f"{name}: " + (" -> ".join(chain) or "imported by the probe itself")
        for name, chain in loaded.items()
    )


def test_serving_imports_stay_off_numpy_the_simulator_and_the_campaigns():
    loaded = _loaded(IMPORTS)
    assert not loaded, "the serving imports load:\n" + _report(loaded)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the shm transport forks")
def test_a_listening_server_has_loaded_none_of_them():
    """What a server loads up to the moment it listens, its warm
    compile included, is a subset of what it loaded by the time a
    zero-duration run returns."""
    loaded = _loaded(SERVE)
    assert not loaded, "gendp-serve loads:\n" + _report(loaded)


def test_the_probe_names_the_chain():
    """The simulator reached through the mapping generators: its chain
    runs through the mapping package's own import lines."""
    loaded = _loaded("import repro.mapping")
    assert loaded["repro.mapping"] == []
    chain = loaded["repro.dpax"]
    assert chain and chain[0].startswith("repro/mapping/"), chain


#: Packages that must not import the simulator, even lazily.
NO_SIMULATOR = ("repro/engine", "repro/static", "repro/guard")


def _simulator_imports(path: pathlib.Path, root: pathlib.Path = SRC) -> List[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
            if node.module == "repro":
                names = [f"repro.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if name == "repro.dpax" or name.startswith("repro.dpax."):
                relative = path.relative_to(root).as_posix()
                found.append(f"{relative}:{node.lineno} imports {name}")
    return found


def test_engine_static_and_guard_never_import_the_simulator():
    found = [
        line
        for package in NO_SIMULATOR
        for path in sorted((SRC / package).rglob("*.py"))
        for line in _simulator_imports(path)
    ]
    assert not found, (
        "read the datapath constants from repro.datapath instead:\n"
        + "\n".join(found)
    )


def test_the_scan_sees_a_simulator_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f():\n    from repro import dpax\n    import repro.dpax.pe\n",
        encoding="utf-8",
    )
    assert _simulator_imports(probe, tmp_path) == [
        "probe.py:2 imports repro.dpax",
        "probe.py:3 imports repro.dpax.pe",
    ]
