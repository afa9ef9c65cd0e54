"""benchmarks/layers.py builds every entry on this tree and each runs once,
untimed, so an entry that a change of an internal API broke fails here; and
its A/B sign test gives the exact binomial p-values."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


@pytest.fixture
def layers(monkeypatch):
    # the script sets a BLAS thread count and puts its src on sys.path
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS",
                        os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("layers_under_test", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layers_entry_runs_once(layers, tmp_path):
    cases = layers.build_cases(layers.holomaplab, tmp_path)
    assert "shells.ball.n30721" in cases
    assert "parse.configs" in cases
    for run in cases.values():
        run()


@pytest.mark.parametrize("wins, rounds, p", [
    (2, 4, 1.0), (1, 4, 2 * (1 + 4) / 16), (0, 4, 2 / 16), (4, 4, 2 / 16),
    (1, 5, 2 * (1 + 5) / 32), (0, 1, 1.0), (0, 60, 2.0 ** -59), (30, 60, 1.0),
    # scipy.stats.binomtest(k, 60).pvalue
    (19, 60, 0.0062176026593266705), (41, 60, 0.0062176026593266705),
    (10, 60, 1.6163814566157175e-07),
])
def test_sign_p_is_the_exact_two_sided_binomial_p_value(layers, wins, rounds, p):
    assert layers.sign_p(wins, rounds) == pytest.approx(p, rel=1e-12)
