"""scripts/make_gvex_fixtures.py: the committed sweep fixture is the
script's output, byte for byte."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "make_gvex_fixtures.py"

_spec = importlib.util.spec_from_file_location("_make_gvex_fixtures", SCRIPT)
make_gvex_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_gvex_fixtures)


def test_script_rewrites_the_committed_fixture(tmp_path):
    out = tmp_path / "gvex_sweep.json"
    make_gvex_fixtures.main(out)
    committed = ROOT / "tests" / "fixtures" / "gvex_sweep.json"
    assert out.read_bytes() == committed.read_bytes()
