"""benchmarks/layers.py builds every entry on this tree and each runs once,
untimed, so an entry that a change of an internal API broke fails here."""

import importlib.util
import os
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


def test_every_layers_entry_runs_once(tmp_path, monkeypatch):
    # the script sets a BLAS thread count and puts its src on sys.path
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS",
                        os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("layers_under_test", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    cases = layers.build_cases(layers.holomaplab, tmp_path)
    assert "shells.ball.n30721" in cases
    assert "parse.configs" in cases
    for run in cases.values():
        run()
