"""The join of residual summaries: ``verify`` reduces each field in the unit
that computes it, one row tile at a time, and joins the tiles' summaries.

The join must give, bit for bit, the record that ``IdentityRecord.from_field``
gives on the whole field, wherever the tiles cut, and that record must not
depend on the field's memory layout.  Max and argmax must follow numpy's argmax of ``|r|`` flattened (the
first NaN wins, then the earliest site), and a 1-d field's mean must be the
bits of ``mean()`` over ``|r|``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmkit.report import IdentityRecord, _Summary

_TOL = 1e-8

# ties, signed zeros, infinities and NaN beside arbitrary doubles
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


def _bits(rec):
    """A record's statistics as bytes, so that NaN equals NaN and -0.0 differs from 0.0."""
    return (rec.name, np.float64(rec.max_residual).tobytes(), np.float64(rec.mean_residual).tobytes(),
            rec.argmax_site, rec.tolerance)


def _laid_out(values, layout):
    """``values`` (C-ordered) in one of four memory layouts, same elements."""
    if layout == "transposed":
        return np.ascontiguousarray(values.T).T
    if layout == "strided":
        wide = np.zeros(tuple(2 * n for n in values.shape))
        wide[tuple(slice(None, None, 2) for _ in values.shape)] = values
        return wide[tuple(slice(None, None, 2) for _ in values.shape)]
    return values


@st.composite
def _fields(draw, min_size=0):
    """A float field of 0 to 3 axes in one of four layouts: C-contiguous,
    transposed, strided, or ``np.broadcast_to`` of one row over all rows."""
    ndim = draw(st.integers(0, 3))
    # rows long enough for numpy's unrolled pairwise sum (8 at a time)
    shape = tuple(draw(st.lists(st.integers(min_size, (6, 24, 16, 6)[ndim]), min_size=ndim, max_size=ndim)))
    layout = draw(st.sampled_from(["C", "transposed", "strided", "broadcast"] if ndim else ["C"]))
    if layout == "broadcast":
        row = np.array(draw(st.lists(_VALUES, min_size=int(np.prod(shape[1:])), max_size=int(np.prod(shape[1:])))))
        return np.broadcast_to(row.reshape(shape[1:]), shape)
    n = int(np.prod(shape))
    values = np.array(draw(st.lists(_VALUES, min_size=n, max_size=n)), dtype=float).reshape(shape)
    return _laid_out(values, layout)


@st.composite
def _row_tiles(draw, rows):
    """Cuts of ``rows`` rows into consecutive tiles, some of them of no rows."""
    cuts = sorted(draw(st.lists(st.integers(0, rows), max_size=6)))
    return list(zip([0, *cuts], [*cuts, rows]))


def _parent_rule(field):
    """Max and argmax as numpy's argmax over |r| flattened gives them."""
    r = np.abs(np.asarray(field, dtype=float))
    flat = r.reshape(-1)
    k = int(np.argmax(flat))
    site = tuple(int(s) for s in np.unravel_index(k, r.shape)) if r.ndim else ()
    return np.float64(flat[k]).tobytes(), site


def _join(field, tiles):
    parts = [_Summary.of(field[a:b]) for a, b in tiles] if np.ndim(field) else [_Summary.of(field)]
    return IdentityRecord.join("r", parts, _TOL)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), field=_fields(min_size=1))
@np.errstate(over="ignore")  # a sum of huge doubles overflows to inf, as it may
def test_join_of_row_tiles_is_the_whole_field_record_bit_for_bit(data, field):
    tiles = data.draw(_row_tiles(len(field))) if field.ndim else None
    whole = IdentityRecord.from_field("r", field, _TOL)
    assert _bits(_join(field, tiles)) == _bits(whole)
    assert _bits(IdentityRecord.from_field("r", field.copy(order="C"), _TOL)) == _bits(whole)  # any layout
    assert (np.float64(whole.max_residual).tobytes(), whole.argmax_site) == _parent_rule(field)
    if field.ndim == 1:
        mean = np.abs(np.asarray(field, dtype=float)).reshape(-1).mean()
        assert np.float64(whole.mean_residual).tobytes() == mean.tobytes()


@settings(max_examples=50, deadline=None)
@given(data=st.data(), field=_fields().filter(lambda f: f.size == 0))
def test_a_field_without_sites_keeps_numpys_argmax_error(data, field):
    tiles = data.draw(_row_tiles(len(field))) if field.ndim else None
    with pytest.raises(ValueError, match="empty sequence") as parent:
        _parent_rule(field)
    for reduce in (lambda: IdentityRecord.from_field("r", field, _TOL), lambda: _join(field, tiles)):
        with pytest.raises(ValueError) as err:
            reduce()
        assert str(err.value) == str(parent.value)


def test_the_first_nan_wins_across_tiles():
    field = np.array([[1.0, 7.0], [np.nan, 2.0], [np.nan, 9.0]])
    rec = _join(field, [(0, 1), (1, 1), (1, 3)])
    assert np.isnan(rec.max_residual) and rec.argmax_site == (1, 0)
    tie = _join(np.array([[3.0], [-3.0], [3.0]]), [(0, 0), (0, 1), (1, 3)])
    assert (rec.argmax_site, tie.argmax_site, tie.max_residual) == ((1, 0), (0, 0), 3.0)


def test_a_record_from_a_field_keeps_its_summary_and_a_joined_one_does_not():
    field = np.arange(6.0).reshape(3, 2)
    rec = IdentityRecord.from_field("r", field, _TOL)
    assert rec.summary.shape == (3, 2) and rec.summary.row_sums.tolist() == [1.0, 5.0, 9.0]
    assert _join(field, [(0, 3)]).summary is None


def test_a_record_does_not_depend_on_the_field_layout():
    # rows of more than 8 random doubles, where numpy's pairwise row sum and
    # a column-by-column sum of the transposed layout round differently
    values = np.random.default_rng(3).standard_normal((12, 40))
    ref = _bits(IdentityRecord.from_field("r", values, _TOL))
    for layout in ("transposed", "strided"):
        field = _laid_out(values, layout)
        assert _Summary.of(field).row_sums.tobytes() == _Summary.of(values).row_sums.tobytes()
        assert _bits(IdentityRecord.from_field("r", field, _TOL)) == ref
        assert _bits(_join(field, [(0, 5), (5, 5), (5, 12)])) == ref
