"""The benchmark's tracer still finds every name it wraps.

`bench/tracing.py` patches the functions named in its TARGETS by looking
them up in their modules and classes, so a renamed or deleted name fails
only the next traced benchmark run.  This test installs the tracer and takes
it off again, importing the file without writing bytecode under bench/.
"""

import importlib.util
import sys
from pathlib import Path

import egc.cli  # noqa: F401  (imports every module the tracer patches)
import egc.shapes

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_installs_every_target(capsys):
    tracing = _load_tracing()
    original = egc.shapes.skew_props
    tracer = tracing.Tracer()
    try:
        tracer.install()  # a KeyError names a target that is gone
        egc.shapes.skew_props((2, 1), (1,))
        assert tracer.calls["shapes.skew_props"] == 1
        # egc j runs under the wrappers, clearing its caches included
        assert egc.cli.main(["j", "--lambda", "2,1", "--phi", "-3,-1",
                             "--rho", "1"]) == 0
        assert tracer.calls["pipeline.j_coefficient"] == 1
    finally:
        tracer.uninstall()
    assert egc.shapes.skew_props is original
