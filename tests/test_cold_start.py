"""scipy's ``linalg`` loads on first use: the bundled commands never touch
it, and a computation that does gets the same values as with it imported up
front.  ``scipy.ndimage`` serves no computation, so it never loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import opspectra

BUNDLED_COMMANDS = """
import contextlib, io, json, sys
from opspectra import cli, specfiles
for command in ("classify", "spectrum", "decompose"):
    for name in specfiles.BUNDLED:
        for fmt in ("text", "structured"):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([command, name, "--format", fmt])
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("scipy.ndimage.", "scipy.linalg.")))))
"""

# A two-sided symbol that is neither a monomial nor a segment, so the
# summary runs the crossing search of the curve, and the banded oracle
# behind validate.
SUMMARY_AND_ORACLE = """
import hashlib, json, pickle, sys
import numpy as np
from opspectra import fredholm_index, from_dense_corner, spectral_summary, toeplitz
rng = np.random.default_rng([20201008, 2, 8, 1])
op = (toeplitz({k: complex(*rng.uniform(-1, 1, 2)) for k in range(-2, 3)})
      + from_dense_corner(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))))
summary = spectral_summary(op)
index = fredholm_index(op, 3.0 + 0j, validate=True, n=128)
print(json.dumps({
    "summary": hashlib.sha256(pickle.dumps(summary)).hexdigest(),
    "area": summary.area, "eigenvalues": repr(summary.eigenvalues),
    "index": index,
    "loaded": [name for name in ("scipy.ndimage", "scipy.linalg._flapack")
               if name in sys.modules]}))
"""


def _run(script, cwd):
    src = str(Path(opspectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bundled_commands_load_no_scipy_subpackage(tmp_path):
    assert _run(BUNDLED_COMMANDS, tmp_path) == []


ENGINE_ONLY = """
import json, sys
import numpy as np
from opspectra import from_dense_corner, toeplitz
from opspectra.classify import _region_clusters
rng = np.random.default_rng([20201008, 2, 8, 1])
op = (toeplitz({k: complex(*rng.uniform(-1, 1, 2)) for k in range(-2, 3)})
      + from_dense_corner(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))))
found, certified = _region_clusters(op)
print(json.dumps({"certified": certified, "found": len(found),
                  "ndimage": "scipy.ndimage._ni_label" in sys.modules}))
"""


SUMMARY_ONLY = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("workloads", {workloads!r})
workloads = importlib.util.module_from_spec(spec)
sys.modules["workloads"] = workloads
spec.loader.exec_module(workloads)
from opspectra import spectral_summary
summary = spectral_summary(workloads.generic_base(3, 16, 1))
print(json.dumps({{"faces": len(summary.weyl_extra), "error": summary.area_error,
                  "ndimage": "scipy.ndimage" in sys.modules}}))
"""


def test_spectral_summary_leaves_ndimage_unloaded(tmp_path):
    """The area and faces of pool base (3, 16, 1) come from the arrangement
    of its curve: its four faces at nonzero winding, exactly, with
    scipy.ndimage never imported."""
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    got = _run(SUMMARY_ONLY.format(workloads=str(workloads)), tmp_path)
    assert got == {"faces": 4, "error": 0.0, "ndimage": False}


def test_eigenvalue_engine_loads_no_ndimage(tmp_path):
    """The isolated eigenvalues of SUMMARY_AND_ORACLE's operator are counted
    on its curve, with no raster: the deferred scipy.ndimage never runs."""
    got = _run(ENGINE_ONLY, tmp_path)
    assert got["certified"] and got["found"] and not got["ndimage"]


def test_deferred_scipy_gives_the_eager_values(tmp_path):
    deferred = _run(SUMMARY_AND_ORACLE, tmp_path)
    eager = _run("import scipy.linalg\n" + SUMMARY_AND_ORACLE, tmp_path)
    assert deferred["loaded"] == ["scipy.linalg._flapack"]
    assert deferred == eager
