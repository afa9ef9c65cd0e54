"""Property tests: a row's Jacobian and singular values do not depend on the
batch they are computed in.  The sampled sups score samples as one batch and
hill-climb candidates as batches of one, so a climb re-scores its start
point to the sampled value only if this holds."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from holomaplab import (  # noqa: E402
    Affine,
    Compose,
    DurenRudin,
    ExpCoord,
    Harris,
    Henon,
    Identity,
    Linear,
    Scalar,
    Translation,
    dilate,
    jacobian_batch,
    parse,
)
from holomaplab.algebra import singular_values_batch  # noqa: E402

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
cplx = st.builds(complex, unit, unit)
vec2 = st.lists(cplx, min_size=2, max_size=2).map(np.array)
mat2 = st.lists(cplx, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2))

builtins = st.one_of(
    st.just(Identity(2)),
    st.builds(Henon, cplx),
    st.builds(Harris, st.integers(1, 12)),
    st.builds(DurenRudin, st.floats(0.1, 2.0)),
    st.builds(ExpCoord, cplx, st.just(2)),
    st.builds(Linear, mat2),
    st.builds(Translation, vec2),
    st.just(parse("(z1^2 + 3*z2, z1*z2 - z2^3)")),
)


def _extend(children):
    return st.one_of(
        st.builds(Compose, children, children),
        st.builds(Scalar, cplx.filter(lambda c: c != 0), children),
        st.builds(Affine, vec2, mat2, children),
        st.builds(dilate, children, st.floats(0.2, 2.0)),
    )


maps = st.recursive(builtins, _extend, max_leaves=4)


@st.composite
def points_and_splits(draw):
    n = draw(st.integers(1, 24))
    rows = draw(st.lists(vec2, min_size=n, max_size=n))
    cuts = sorted(set(draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=4))))
    return np.array(rows), [c for c in cuts if c < n]


def _rows(m, pts):
    values, jacs = jacobian_batch(m, pts)
    return values, jacs, singular_values_batch(jacs)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(maps, points_and_splits())
def test_rows_do_not_depend_on_the_batch(m, data):
    pts, cuts = data
    whole = _rows(m, pts)
    for i in range(len(pts)):
        single = _rows(m, pts[i:i + 1])
        for w, s in zip(whole, single):
            assert _same_bits(w[i:i + 1], s)
    for lo, hi in zip([0] + cuts, cuts + [len(pts)]):
        part = _rows(m, pts[lo:hi])
        for w, p in zip(whole, part):
            assert _same_bits(w[lo:hi], p)
