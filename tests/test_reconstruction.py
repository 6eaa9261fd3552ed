"""The one reconstruction kernel, ``hyper._reconstruct``, against the three it
replaced.

The reconstruction f = [nu, nu_{x_1}, ..., nu_{x_n}] / sqrt(det / w) was
written three times: ``smooth._reconstruct_arrays`` (behind
``reconstruct_field`` and ``reconstruct_point``), ``smooth.reconstruct_point_alt``
(third order, one jet at a time) and ``hyper.hyper_reconstruct`` (with its
own determinant row order).  The three are kept here as references.

- ``reconstruct_field`` gives their f, mask, error type and message bit for
  bit, at every batch shape; on batches other than 2-D, its first bad site is
  the reference's, given as an index tuple of the batch.
- ``reconstruct_point_alt`` gives the reference's result bit for bit, jet by
  jet, wherever every determinant and its norm product are finite; a batch
  raises at the first site in C order that one jet would raise at.
- ``hyper_reconstruct`` ends the same way as the reference (result, or the
  same error and message) wherever the determinants and norm products of both
  row orders are finite; its points are the reference's projectively, with the
  same signs.

Random jets have batch shapes (), (k,) and (k, l), magnitudes from 1e-150 to
1e150 and signed zeros.  Every call, finite determinants or not, must end in
a result or a typed ``PlmError``.  No sympy here: this module runs on the
oldest numpy that pyproject allows.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmkit.errors import ChartMismatchError, DegeneratePointError, DomainError, PivotMismatchError, PlmError
from plmkit.fields import JetGrid
from plmkit.hyper import _a_values, _params, hyper_reconstruct
from plmkit.multilinear import _degeneracy_bound, _norm_product, cross_n, det_n
from plmkit.projective import projective_distance
from plmkit.scenarios import scenario
from plmkit.smooth import _CHART_A, ChartKind, reconstruct_field, reconstruct_point_alt

# --- references: the three reconstructions before the merge --------------------


def _reconstruct_arrays_ref(jet, chart):
    """smooth._reconstruct_arrays: cross / sqrt(det), with det and its bound."""
    last = jet.d_xy if chart is ChartKind.ASYMPTOTIC else jet.d_xx
    num = cross_n([jet.value, *jet.d1])
    det = np.asarray(det_n([jet.value, jet.d_x, jet.d_y, last]), dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        res = num / np.sqrt(det)[..., None]
    return res, det, _degeneracy_bound(_norm_product(jet.value, jet.d_x, jet.d_y, last))


def _reconstruct_field_ref(jets, chart, strict=False):
    """smooth.reconstruct_field, whose strict mode took 2-D batches only."""
    res, det, bound = _reconstruct_arrays_ref(jets, chart)
    bad = ~(det > bound)
    if strict and np.any(bad):
        i, j = np.argwhere(bad)[0]
        if abs(det[i, j]) <= bound[i, j]:
            raise DegeneratePointError(f"degenerate point at grid index ({i}, {j})")
        raise ChartMismatchError(f"negative discriminant at grid index ({i}, {j})")
    res = np.where(bad[..., None], np.nan, res)
    return res, bad


def _reconstruct_point_alt_ref(jet, axis):
    """smooth.reconstruct_point_alt, which took one jet only."""
    if jet.order < 3:
        raise DomainError("reconstruct_point_alt needs third derivatives")
    if axis not in ("x", "y"):
        raise DomainError("axis must be 'x' or 'y'")
    a, b, c = (jet.d_x, jet.d_xx, jet.d_xxx) if axis == "x" else (jet.d_y, jet.d_yy, jet.d_yyy)
    det = float(det_n([jet.value, a, b, c]))
    radicand = det if axis == "x" else -det
    scale = float(_norm_product(jet.value, a, b, c))
    if abs(radicand) <= _degeneracy_bound(scale):
        raise DegeneratePointError("degenerate third-order discriminant (ruled/quadric locus)")
    if radicand < 0:
        raise ChartMismatchError(f"wrong-sign radicand {radicand:.3e} for axis {axis}")
    return -cross_n([jet.value, a, b]) / np.sqrt(radicand)


def _hyper_reconstruct_ref(jet, A, pivot=(1, 1)):
    """hyper.hyper_reconstruct: -sqrt(A[a, c] / det|nu_ac, nu, nu_x1, ...|) * cross."""
    n = _params(jet)
    a, c = pivot
    if not (1 <= a <= n and 1 <= c <= n):
        raise DomainError(f"pivot {pivot} out of range 1..{n}")
    Av = _a_values(A, n, jet.shape)
    m = cross_n([jet.value, *jet.d1])
    second = jet.partial2(a - 1, c - 1)
    det = np.asarray(det_n([second, jet.value, *jet.d1]), dtype=float)
    if np.any(np.abs(det) <= _degeneracy_bound(_norm_product(second, jet.value, *jet.d1))):
        raise DegeneratePointError(f"degenerate pivot determinant for pivot {pivot}")
    ratio = Av[..., a - 1, c - 1] / det
    if np.any(ratio <= 0):
        raise PivotMismatchError(f"negative radicand A{pivot}/det at pivot {pivot}; choose another pivot")
    return -np.sqrt(ratio)[..., None] * m


# --- helpers ------------------------------------------------------------------


def _outcome(call):
    """("ok", result) or (error type, message); an error that is not a
    PlmError propagates and fails the test."""
    try:
        with np.errstate(all="ignore"):
            return "ok", call()
    except PlmError as exc:
        return type(exc), str(exc)


def _bits(*arrays):
    return [(np.shape(a), np.asarray(a).dtype, np.asarray(a).tobytes()) for a in arrays]


def _as_2d(jet):
    """The same jets over a 2-D batch: () becomes (1, 1) and (k,) becomes (1, k)."""
    rows = (1,) * (2 - len(jet.shape)) + jet.shape

    def fit(arr, lead=()):
        return None if arr is None else arr.reshape(lead + rows + arr.shape[-1:])

    return JetGrid(fit(jet.value), fit(jet.d1, jet.d1.shape[:1]), fit(jet.d2, jet.d2.shape[:1]),
                   fit(jet.d3, () if jet.d3 is None else jet.d3.shape[:1]))


def _on_batch(message, shape):
    """A 2-D message of the reference, "... at grid index (i, j)", for a batch
    of ``shape`` that the 2-D (1, ...) batch was reshaped from."""
    match = re.fullmatch(r"(.*) at grid index \((\d+), (\d+)\)", message)
    stem, i, j = match.group(1), int(match.group(2)), int(match.group(3))
    site = np.unravel_index(i * (shape[-1] if shape else 1) + j, shape) if shape else ()
    return stem + (f" at grid index {tuple(int(k) for k in site)}" if site else "")


def _signed_zeros(rng, arr, frac):
    """Plant +0 and -0 at a fraction ``frac`` of the entries."""
    hit = rng.random(arr.shape) < frac
    arr[hit] = np.where(rng.random(int(hit.sum())) < 0.5, 0.0, -0.0)
    return arr


def _finite(*orders):
    """Whether each row order's determinant and norm product are finite at
    every site: an overflowing norm times a zero one is a NaN bound, and the
    orders overflow at different intermediate products."""
    with np.errstate(all="ignore"):
        return all(np.all(np.isfinite(fn(rows))) for rows in orders for fn in (det_n, lambda r: _norm_product(*r)))


def _flip(jet, slot, sign):
    """A copy of ``jet`` with the vector ``slot(jet)`` times ``sign`` per site:
    negating one row of a determinant negates it exactly."""
    out = JetGrid(jet.value, jet.d1.copy(), jet.d2.copy(), None if jet.d3 is None else jet.d3.copy())
    vec = slot(out)
    vec *= sign[..., None]
    return out


@st.composite
def _jets(draw, n=2, order=2, spreads=(0, 20, 150)):
    """Jets in n parameters over a batch of shape (), (k,) or (k, l), at a
    magnitude in 1e-150..1e150, each vector off it by up to 10^spread,
    signed zeros planted."""
    shape = draw(st.sampled_from([(), (1,), (4,), (1, 1), (2, 3), (3, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.4]))
    exponent, spread = draw(st.integers(-150, 150)), draw(st.sampled_from(spreads))
    full = shape + (n + 2,)

    def part(count):
        exps = exponent + rng.integers(-spread, spread + 1, size=(count,) + (1,) * len(full))
        return _signed_zeros(rng, rng.standard_normal((count,) + full) * 10.0 ** np.clip(exps, -150, 150), zeros)

    value, d1, d2 = part(1)[0], part(n), part(n * (n + 1) // 2)
    return JetGrid(value, d1, d2, part(n) if order == 3 else None)


# --- surface points -------------------------------------------------------------


def _check_field(jet, chart):
    got = _outcome(lambda: reconstruct_field(jet, chart))
    assert got[0] == "ok"
    with np.errstate(all="ignore"):
        ref = _reconstruct_field_ref(jet, chart)
    assert _bits(*got[1]) == _bits(*ref)
    strict = _outcome(lambda: reconstruct_field(jet, chart, strict=True))
    ref = _outcome(lambda: _reconstruct_field_ref(_as_2d(jet), chart, strict=True))
    if ref[0] == "ok":
        assert strict[0] == "ok" and _bits(*strict[1]) == _bits(*got[1])
    else:
        assert strict == (ref[0], _on_batch(ref[1], jet.shape))
        if len(jet.shape) == 2:
            assert strict[1] == ref[1]


@settings(max_examples=200, deadline=None)
@given(jet=_jets(), positive=st.booleans())
def test_field_equals_the_reference_on_random_jets(jet, positive):
    for chart in ChartKind:
        if positive:  # flip the chart's slot where the discriminant is negative
            slot = (lambda j: j.d2[1]) if chart is ChartKind.ASYMPTOTIC else (lambda j: j.d2[0])
            with np.errstate(all="ignore"):
                det = _reconstruct_arrays_ref(jet, chart)[1]
            jet = _flip(jet, slot, np.where(det < 0, -1.0, 1.0))
        _check_field(jet, chart)


@settings(max_examples=200, deadline=None)
@given(jet=_jets(order=3), axis=st.sampled_from(["x", "y"]), positive=st.booleans())
def test_alt_equals_the_reference_jet_by_jet(jet, axis, positive):
    a, w = (0, 1.0) if axis == "x" else (1, -1.0)
    rows = [jet.value, jet.d1[a], jet.partial2(a, a), jet.d3[a]]
    if positive:
        with np.errstate(all="ignore"):
            jet = _flip(jet, lambda j: j.d3[a], np.where(det_n(rows) / w < 0, -1.0, 1.0))
    got = _outcome(lambda: reconstruct_point_alt(jet, axis))
    if not _finite(rows):
        return  # a result or a PlmError is all that is asked
    refs = [(site, _outcome(lambda: _reconstruct_point_alt_ref(jet[site], axis))) for site in np.ndindex(*jet.shape)]
    failed = [(site, ref) for site, ref in refs if ref[0] != "ok"]
    if failed:
        site, (kind, message) = failed[0]
        assert got == (kind, message + (f" at grid index {site}" if site else ""))
    else:
        assert got[0] == "ok"
        expect = np.stack([ref[1] for _, ref in refs]).reshape(jet.shape + (4,))
        assert _bits(got[1]) == _bits(expect)


def test_alt_with_an_overflowing_determinant_raises():
    # entries near 1e200 overflow the cofactor products of det|v, v_x, v_xx,
    # v_xxx| to inf - inf = NaN: the reference returned an all-NaN point
    rng = np.random.default_rng(5)
    jet = JetGrid(*(rng.standard_normal(s) * 1e200 for s in ((4,), (2, 4), (3, 4), (2, 4))))
    with np.errstate(all="ignore"):
        assert np.isnan(det_n([jet.value, jet.d_x, jet.d_xx, jet.d_xxx]))
        assert np.all(np.isnan(_reconstruct_point_alt_ref(jet, "x")))
    with pytest.raises(ChartMismatchError, match="wrong-sign radicand nan for axis x"):
        reconstruct_point_alt(jet, "x")


@pytest.mark.parametrize("index, site", [((6, 6), ()), ((6, slice(2, 6)), (0,)), ((slice(2, 5), slice(2, 5)), (0, 0))])
def test_a_bad_site_of_any_batch_shape_raises_a_typed_error(index, site):
    # the asymptotic discriminant det|nu, nu_x, nu_y, nu_xy| of the conjugate
    # fixture vanishes everywhere, and so does the cubic graph's y family
    at = f" at grid index {site}" if site else ""
    with pytest.raises(DegeneratePointError, match=re.escape(f"degenerate point{at}") + "$"):
        reconstruct_field(scenario("conj-paraboloid").nu_jets[index], ChartKind.ASYMPTOTIC, strict=True)
    with pytest.raises(DegeneratePointError, match=re.escape(f"(ruled/quadric locus){at}") + "$"):
        reconstruct_point_alt(scenario("cubic-graph").nu_jets[index], "y")


@pytest.mark.parametrize("shape", [(5,), (2, 3), (2, 2, 2)])
def test_the_first_bad_site_in_c_order_is_named(shape):
    # unit jets with nu_xx = -e4 (conjugate-chart mismatch) at sites 3 and 4
    e = np.eye(4)
    d2 = np.stack([np.tile(e[3], shape + (1,)) for _ in range(3)])
    d2[0].reshape(-1, 4)[3:5] = -e[3]
    jet = JetGrid(np.tile(e[0], shape + (1,)), np.stack([np.tile(e[k], shape + (1,)) for k in (1, 2)]), d2)
    site = tuple(int(i) for i in np.unravel_index(3, shape))
    with pytest.raises(ChartMismatchError, match=re.escape(f"negative discriminant at grid index {site}") + "$"):
        reconstruct_field(jet, ChartKind.CONJUGATE, strict=True)
    f, bad = reconstruct_field(jet, ChartKind.CONJUGATE)
    assert np.flatnonzero(bad).tolist() == [3, 4]
    assert np.array_equal(np.isnan(f).all(axis=-1), bad) and not np.isnan(f[~bad]).any()


# --- hypersurface points --------------------------------------------------------


@st.composite
def _hyper_cases(draw):
    """(jets, weights, pivot): n = 2..4, weights (n, n) or per site, zero
    entries planted, and a pivot in 1..n.  The vectors of a jet share one
    magnitude: the two row orders under- and overflow at different
    intermediate products when they do not."""
    n = draw(st.integers(2, 4))
    jet = draw(_jets(n=n, spreads=(0,)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((jet.shape if draw(st.booleans()) else ()) + (n, n))
    _signed_zeros(rng, A, 0.1)
    return jet, A, (draw(st.integers(1, n)), draw(st.integers(1, n)))


@settings(max_examples=200, deadline=None)
@given(case=_hyper_cases())
def test_hyper_ends_as_the_reference_on_random_jets(case):
    jet, A, pivot = case
    got = _outcome(lambda: hyper_reconstruct(jet, A, pivot))
    second = jet.partial2(pivot[0] - 1, pivot[1] - 1)
    if not _finite([second, jet.value, *jet.d1], [jet.value, *jet.d1, second]):
        return  # a result or a PlmError is all that is asked
    ref = _outcome(lambda: _hyper_reconstruct_ref(jet, A, pivot))
    assert got[0] == ref[0]
    if ref[0] != "ok":
        assert got[1] == ref[1]
    elif np.all(np.isfinite(ref[1])) and np.all(np.isfinite(got[1])):
        assert np.array_equal(np.sign(got[1]), np.sign(ref[1]))

        def unit(f):  # each point scaled to max-norm 1, so no square underflows
            return f / np.max(np.abs(f), axis=-1, keepdims=True)

        assert np.all(projective_distance(unit(got[1]), unit(ref[1])) <= 1e-10)


@pytest.mark.parametrize("weight, lam", [(1e-3, 10.0**76.5), (1e6, 10.0**-76.5), (1e-30, 1e75)])
def test_hyper_forms_no_radicand_that_overflows_or_underflows(weight, lam):
    # scaling the jets by lam scales det by lam^4 (to 1e306, 1e-306 or 1e300
    # here) and f by lam sqrt(w); det / w would overflow to inf, or keep a few
    # digits in the subnormals, and the reference's w / det does the same the
    # other way round (at w = 1e-30 it underflows to 0, so the sign of the
    # radicand is taken without a quotient), while f itself is an ordinary number
    jet = scenario("ell-paraboloid").hyper_nu_jet[3, 4]
    scaled = JetGrid(lam * jet.value, lam * jet.d1, lam * jet.d2)
    f, expect = hyper_reconstruct(scaled, weight * np.eye(2)), lam * np.sqrt(weight) * hyper_reconstruct(jet, np.eye(2))
    assert np.max(np.abs(f - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_hyper_with_a_zero_pivot_partial_beside_overflowing_norms_is_degenerate():
    # nu_x1x1 is zero and |nu| |nu_x1| |nu_x2| overflows: the kernel's norm
    # product is 0 at the zero factor, and the reference's determinant, with
    # the zero row first, 0 * inf = NaN, so it returned a NaN point
    jet = JetGrid(np.array([1e150, 2e149, 0.0, 0.0]), np.array([[0.0, 1e150, 3e149, 0.0], [0.0, 0.0, 1e10, 2e9]]),
                  np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
    A = np.array([[-1.0, 2.0], [3.0, 4.0]])
    with np.errstate(all="ignore"):
        assert np.all(np.isnan(_hyper_reconstruct_ref(jet, A, (1, 1))))
        with pytest.raises(DegeneratePointError):
            hyper_reconstruct(jet, A, (1, 1))


def test_a_zero_last_slot_beside_overflowing_norms_is_degenerate():
    # |nu| |nu_x| |nu_y| overflows and the slot moved last is zero, so det = 0;
    # the norm product was inf * 0 = NaN, and det = 0 a wrong-sign radicand
    nu, zero = np.array([1e150, 2e149, 0.0, 0.0]), np.zeros(4)
    d1 = np.array([[0.0, 1e150, 3e149, 0.0], [0.0, 0.0, 1e10, 2e9]])
    with pytest.raises(DegeneratePointError, match="^degenerate point$"):
        reconstruct_field(JetGrid(nu, d1, np.stack([zero, zero, zero])), ChartKind.CONJUGATE, strict=True)
    # the frame [nu, nu_x, nu_xx] with nu_xx = nu_y, and nu_xxx = 0
    with pytest.raises(DegeneratePointError, match=r"\(ruled/quadric locus\)$"):
        reconstruct_point_alt(JetGrid(nu, d1, np.stack([d1[1], zero, zero]), np.stack([zero, zero])), "x")


@pytest.mark.parametrize("name", ["hypar", "cubic-graph", "conj-paraboloid"])
def test_surface_reconstruction_is_the_n2_hyper_reconstruction(name):
    scn = scenario(name)
    pivot = (1, 2) if scn.chart is ChartKind.ASYMPTOTIC else (1, 1)
    f, bad = reconstruct_field(scn.nu_jets, scn.chart)
    assert not bad.any()
    assert _bits(-hyper_reconstruct(scn.nu_jets, _CHART_A[scn.chart], pivot)) == _bits(f)
    assert _bits(f) == _bits(_reconstruct_field_ref(scn.nu_jets, scn.chart)[0])
