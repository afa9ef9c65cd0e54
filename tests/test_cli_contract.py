"""CLI contract fuzz: for every task, configs over a drawn map (the task's
fixed small map or one of the trees of test_properties) whose params are
valid values of small size, or 10**400 for an int, mixed with bools,
floats for ints, strings, NaN, +-inf, 1e400 and malformed points.  Every
run exits 0, 2 or 3; it writes a report exactly when it does not exit 2;
and a config that exits 0 gives the same payload when it is run again."""

import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from holomaplab import to_text  # noqa: E402
from holomaplab.cli import TASKS, main  # noqa: E402
from test_properties import maps  # noqa: E402

# json.dumps writes NaN and Infinity, which json.load reads back; json.load
# reads 1e400 as inf
BAD = st.sampled_from([True, 1.5, -1, 0, "x", "1", None, [], {},
                       math.nan, math.inf, -math.inf])
coord = st.floats(-0.5, 0.5)
pair = st.tuples(coord, coord).map(list)
POINT = st.lists(pair, min_size=2, max_size=2)
BAD_POINT = st.one_of(
    BAD,
    st.lists(pair, max_size=4).filter(lambda p: len(p) != 2),
    st.tuples(st.sampled_from([[math.nan, 0], [0, math.inf], [1e400, 0], ["a", 0], [0.1],
                               [0, 0, 0], 0.3]), pair).map(list),
)


def ints(lo, hi):
    """A small int in [lo, hi], or 10**400: a size far past what can be
    allocated, or a step count that only the climb's step floor ends."""
    return st.one_of(st.integers(lo, hi), st.just(10**400))


SAMPLER = {
    "radial_shells": ints(1, 3),
    "points_per_shell": ints(1, 8),
    "refine_steps": ints(0, 3),
}
BZ = dict(SAMPLER, C=st.floats(1.0, 20.0), grid_factor=st.floats(0.1, 1.0))
LANDAU = {
    "tolerance": st.floats(1e-10, 1e-6),
    "center_candidates": ints(1, 2),
    "direction_count": st.one_of(st.none(), ints(1, 8)),
    "growth_factor": st.floats(1.1, 2.0),
    "center_refine_steps": ints(0, 1),
}
TASK_PARAMS = {
    "eval": {"point": POINT},
    "jacobian": {"point": POINT},
    "kappa-sup": dict(SAMPLER, exclusion_tolerance=st.floats(0.0, 1e-6)),
    "refined-sup": dict(SAMPLER, base_point=POINT),
    "bz-run": BZ,
    "bz-sequence": dict(BZ, n_values=st.lists(ints(1, 3), min_size=1, max_size=2)),
    "landau": LANDAU,
    "rescaled-growth": dict(LANDAU, R_values=st.lists(st.floats(0.5, 2.0), min_size=1,
                                                      max_size=2)),
    "counterexample": {
        "centers_count": ints(0, 4),
        "centers": st.one_of(st.none(), st.lists(POINT, min_size=1, max_size=3)),
    },
}
# each task's fixed map; a drawn tree is a constant bz-sequence family
MAPS = {"bz-sequence": "linear(a=[[{n}, 0], [0, 1]])", "counterexample": "harris(n=3)"}


@st.composite
def configs(draw):
    """A config of a drawn task whose params and domain fields are valid,
    except for at most one that takes a bad value."""
    task = draw(st.sampled_from(TASKS))
    fields = dict(TASK_PARAMS[task], shape=st.sampled_from(["ball", "polydisc"]),
                  radius=st.floats(0.5, 1.5), dim=st.just(2))
    bad = draw(st.sampled_from([None, *sorted(fields)]))
    values = {key: draw((BAD_POINT if "point" in key else BAD) if key == bad else valid)
              for key, valid in fields.items()}
    domain = {key: values.pop(key) for key in ("shape", "radius", "dim")}
    map_text = draw(st.one_of(st.just(MAPS.get(task, "henon(b=0.5)")), maps.map(to_text)))
    return {"schema": 1, "map": map_text, "task": task,
            "domain": domain, "seed": draw(st.integers(0, 2**32)), "params": values}


@settings(max_examples=200, deadline=None)
@given(configs())
def test_exit_codes_reports_and_payloads(raw):
    assert set(TASK_PARAMS) == set(TASKS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "c.json")
        path.write_text(json.dumps(raw))
        payloads = []
        for name in ("r1.json", "r2.json"):
            out = Path(tmp, name)
            code = main(["run", str(path), "-o", str(out)])
            assert code in (0, 2, 3)
            assert out.exists() == (code != 2)
            if code != 0:
                return
            payloads.append(json.dumps(json.loads(out.read_text())["payload"], sort_keys=True))
        assert payloads[0] == payloads[1]
