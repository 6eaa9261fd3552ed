"""The one defining-system kernel, ``hyper._defining_system``, against the two
it replaced.

The defining system f ^ f_{x_a} = sum_b A[a, b] * star(slot b) was written
twice: ``smooth.plm_residual`` had one (name, lhs, rhs) table per chart, and
``hyper.hyper_plm_residual`` summed every weighted slot star.  Both are kept
here as references.  The kernel must give their unreduced residual fields bit
for bit: on the fixtures' closed-form and finite-difference jets, and on
random jets with n = 2..4, weights with zero entries, magnitudes from 1e-150
to 1e150 and signed zeros.  A weight that is zero at every site adds no term,
so the kernel equals the full weighted sum wherever the stars under the zero
weights are finite (0 * inf is NaN); the one place the two part is pinned
last.  No sympy here: this module runs on the oldest numpy that pyproject
allows.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plmkit import hyper
from plmkit.fields import JetGrid, jet_grid
from plmkit.hyper import AMatrix, hyper_plm_residual
from plmkit.multilinear import _bivector_gap, star_of_wedge, wedge2
from plmkit.report import HYPER_TOL, SMOOTH_TOL, ResidualTile
from plmkit.scenarios import scenario
from plmkit.smooth import ChartKind, plm_residual

# --- references: the two implementations before the merge --------------------


def _plm_residual_ref(fj, nj, chart, report):
    """smooth.plm_residual: the two relations of each chart as a table."""
    wfx = wedge2(fj.value, fj.d_x)
    wfy = wedge2(fj.value, fj.d_y)
    snx = star_of_wedge([nj.value, nj.d_x])
    sny = star_of_wedge([nj.value, nj.d_y])
    if chart is ChartKind.ASYMPTOTIC:
        pairs = [("bivector_x", wfx, snx), ("bivector_y", wfy, -sny)]
    else:
        pairs = [("bivector_x", wfx, -sny), ("bivector_y", wfy, snx)]
    for name, lhs, rhs in pairs:
        report.add(name, _bivector_gap(lhs, rhs), SMOOTH_TOL)


def _hyper_bivectors_ref(fj, nj, Av, report):
    """The bivector records of hyper.hyper_plm_residual: every entry of A,
    zero or not, weighs its slot star."""
    n = nj.n
    stars = [hyper._slot_star(nj, b) for b in range(n)]
    for a in range(n):
        lhs = wedge2(fj.value, fj.d1[a])
        rhs = None
        for b in range(n):
            term = Av[..., a, b, None] * stars[b]
            rhs = term if rhs is None else rhs + term
        report.add(f"bivector_x{a + 1}", _bivector_gap(lhs, rhs), HYPER_TOL)


# --- helpers ------------------------------------------------------------------


def _fields(run):
    """Each unreduced field that ``run(tile)`` keeps: name, dtype, shape, bytes, tolerance."""
    tile = ResidualTile()
    with np.errstate(over="ignore", invalid="ignore"):
        run(tile)
    return [(name, f.dtype, f.shape, f.tobytes(), tol) for name, f, tol in tile.fields]


def _check_smooth(fj, nj, chart):
    got = _fields(lambda tile: plm_residual(fj, nj, chart, report=tile))
    assert got == _fields(lambda tile: _plm_residual_ref(fj, nj, chart, tile))
    # and it is the hypersurface system with the chart's matrix, names aside
    A = AMatrix([[0.0, -1.0], [-1.0, 0.0]] if chart is ChartKind.ASYMPTOTIC else -np.eye(2))
    hyp = _fields(lambda tile: hyper_plm_residual(fj, nj, A, report=tile))[:2]
    assert [f[1:] for f in got] == [f[1:] for f in hyp]


def _check_hyper(fj, nj, A):
    Av = A.values if isinstance(A, AMatrix) else A
    got = _fields(lambda tile: hyper_plm_residual(fj, nj, A, report=tile))
    assert got[: nj.n] == _fields(lambda tile: _hyper_bivectors_ref(fj, nj, Av, tile))


# --- the fixtures ---------------------------------------------------------------

_FIXTURES = {"hypar": ChartKind.ASYMPTOTIC, "cubic-graph": ChartKind.ASYMPTOTIC,
             "conj-paraboloid": ChartKind.CONJUGATE}


@pytest.mark.parametrize("name", sorted(_FIXTURES))
@pytest.mark.parametrize("source", ["closed form", "stencil 2", "stencil 4"])
def test_surface_system_equals_the_chart_tables_on_the_fixtures(name, source):
    scn = scenario(name)
    if source == "closed form":
        fj, nj = scn.f_jets, scn.nu_jets
    else:
        stencil = int(source[-1])
        fj, nj = (jet_grid(g, order=2, stencil=stencil) for g in (scn.f_grid, scn.nu_grid))
    for chart in ChartKind:  # the fixture's own chart passes, the other one fails
        _check_smooth(fj, nj, chart)


@pytest.mark.parametrize("h", [None, 0.005])
def test_hyper_system_equals_the_weighted_sum_on_the_ell_paraboloid(h):
    scn = scenario("ell-paraboloid", **({} if h is None else {"h": h}))
    fj, nj = scn.hyper_f_jet, scn.hyper_nu_jet
    for A in (scn.amatrix, AMatrix([[0.0, 2.0], [-0.5, 0.0]]), AMatrix([[1.5, -0.25], [0.0, 3.0]])):
        _check_hyper(fj, nj, A)


# --- random jets ----------------------------------------------------------------


def _signed_zeros(rng, arr, frac):
    """Plant +0 and -0 at a fraction ``frac`` of the entries."""
    hit = rng.random(arr.shape) < frac
    arr[hit] = np.where(rng.random(int(hit.sum())) < 0.5, 0.0, -0.0)
    return arr


@st.composite
def _systems(draw):
    """(n, f jet, nu jet, weights): a batch of 3 x 2 sites, each jet at one
    magnitude in 1e-150..1e150, signed zeros planted; the weights an (n, n)
    matrix or a per-point array, with entries that are zero at every site."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.5]))
    shape = (3, 2)
    full = shape + (n + 2,)

    def jet(exponent):
        arrays = (rng.standard_normal(s) * 10.0**exponent for s in (full, (n,) + full, (n * (n + 1) // 2,) + full))
        return JetGrid(*(_signed_zeros(rng, a, zeros) for a in arrays))

    fj, nj = jet(draw(st.integers(-150, 150))), jet(draw(st.integers(-150, 150)))
    per_point = draw(st.booleans())
    A = rng.standard_normal((shape if per_point else ()) + (n, n))
    A[..., rng.random((n, n)) < 0.4] = 0.0  # zero at every site
    if per_point:
        _signed_zeros(rng, A, 0.1)  # zero at some sites only
    return n, fj, nj, A


@settings(max_examples=300, deadline=None)
@given(system=_systems())
def test_kernel_equals_both_references_on_random_jets(system):
    n, fj, nj, A = system
    if n == 2:
        for chart in ChartKind:
            _check_smooth(fj, nj, chart)
    with np.errstate(over="ignore", invalid="ignore"):
        stars = [hyper._slot_star(nj, b) for b in range(n)]
    assume(all(np.all(np.isfinite(stars[b])) for a in range(n) for b in range(n) if np.all(A[..., a, b] == 0)))
    _check_hyper(fj, nj, A)


def test_a_zero_weight_keeps_a_non_finite_star_out_of_the_residual():
    # nu_x2 and nu_x3 near 1e155 overflow the one slot star that holds both,
    # star(nu ^ nu_x2 ^ nu_x3), and nu_x1 near 1e-160 keeps the other two
    # small; the first row of A does not weigh the first, so the kernel's
    # first residual is finite where the weighted sum had 0 * inf = NaN
    rng = np.random.default_rng(3)
    full = (2, 2, 5)
    d1 = rng.standard_normal((3,) + full)
    d1[0] *= 1e-160
    d1[1:] *= 1e155
    fj = JetGrid(value=rng.standard_normal(full), d1=rng.standard_normal((3,) + full),
                 d2=rng.standard_normal((6,) + full))
    nj = JetGrid(value=rng.standard_normal(full), d1=d1, d2=rng.standard_normal((6,) + full))
    A = AMatrix([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(hyper._slot_star(nj, 0)))
        assert all(np.all(np.isfinite(hyper._slot_star(nj, b))) for b in (1, 2))
    got, ref = (dict((name, np.frombuffer(data)) for name, _, _, data, _ in fields) for fields in (
        _fields(lambda tile: hyper_plm_residual(fj, nj, A, report=tile)),
        _fields(lambda tile: _hyper_bivectors_ref(fj, nj, A.values, tile))))
    assert np.all(np.isfinite(got["bivector_x1"])) and np.all(np.isnan(ref["bivector_x1"]))
