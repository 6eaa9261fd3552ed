"""Named residual statistics for verified identities."""

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["IdentityRecord", "InvariantReport", "ResidualTile", "CONVENTIONS"]

# Recorded in every JSON report so downstream comparisons are unambiguous.
CONVENTIONS = {
    "epsilon": "eps(1,2,...,d) = +1",
    "cross_sign_anchor": "cross_n(e1, e2, e3) = -e4 (d = 4)",
    "hodge_anchor": "star(e1 ^ e2) = e3 ^ e4",
    "sqrt_branch": "positive root in all reconstruction radicals",
}


# The threshold of every verdict, each defined once: a residual passes at or
# below its tolerance, and multilinear._degeneracy_bound scales DEGENERACY.
SMOOTH_TOL = 1e-8  # smooth-chart identities
HYPER_TOL = 1e-8  # hypersurface defining system and compatibility
AFFINE_TOL = 1e-8  # affine-gauge identities and closure, classical integration
LATTICE_TOL = 1e-10  # lattice identities and Moutard closure, lattice integration
DEGENERACY = 1e-10  # degenerate points and radicand signs
SPAN_TOL = 1e-6  # compatibility span tests, smooth and lattice
SCALE_TOL = 1e-8  # discrete_scale_propagate: its span test and its recursion cross-check


def _row_blocks(shape, sites):
    """Row slices (of the first axis) of about ``sites`` sites each that cover
    a batch of ``shape``."""
    step = max(1, sites // max(1, math.prod(shape[1:])))
    return [slice(r, min(r + step, shape[0])) for r in range(0, shape[0], step)]


def _check_residual(residual, tolerance, error):
    """Raise ``error(site, value)`` at the worst site of a residual field
    unless every site is within ``tolerance``.  As in ``IdentityRecord.passed``
    a site passes only when its residual is at most the tolerance, so NaN
    fails, and the first NaN is the worst site."""
    _check_row_blocks([residual], tolerance, error)


def _check_row_blocks(blocks, tolerance, error):
    """``_check_residual`` of the field whose consecutive row blocks (an index
    of its first axis) ``blocks`` yields in row order, each made when it is
    taken: the same error at the same site, the worst of the join of the
    blocks' summaries (``IdentityRecord.join``: the first NaN, else the first
    maximum of the whole field).  A residual is non-negative, or NaN."""
    parts = [_Summary.of(block) for block in blocks]
    if sum(math.prod(p.shape) for p in parts):
        worst = IdentityRecord.join("", parts, tolerance)
        if not worst.passed:
            raise error(worst.argmax_site, worst.max_residual)


class _Summary(NamedTuple):
    """A residual field r reduced to what a join of its row tiles needs: the
    largest |r| and the first flat index that holds it (numpy's argmax rule:
    the first NaN wins, then the earliest site; -inf and 0 on a field without
    sites), the sums of |r| over each row (an index of the first axis; a 0-d
    field is one row) and the field's shape."""

    peak: float
    index: int
    row_sums: np.ndarray
    shape: tuple

    @classmethod
    def of(cls, residual):
        # C order, so that each row sum is one pairwise sum over the row,
        # whatever the field's layout and wherever the tiles cut it
        r = np.abs(np.asarray(residual, dtype=float), order="C")
        flat = r.reshape(-1)
        k = int(np.argmax(flat)) if flat.size else 0
        rows = r.reshape(len(r) if r.ndim else 1, math.prod(r.shape[1:]))
        return cls(float(flat[k]) if flat.size else -math.inf, k, np.add.reduce(rows, axis=1), r.shape)


@dataclass
class IdentityRecord:
    name: str
    max_residual: float
    mean_residual: float
    argmax_site: tuple
    tolerance: float
    # the summary of the field of a record from_field made, for a join with
    # the field's other row tiles; None on a joined record
    summary: _Summary = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self):
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "argmax_site": list(self.argmax_site),
            "tolerance": self.tolerance,
            "pass": self.passed,
        }

    @classmethod
    def from_field(cls, name, residual, tolerance):
        """Reduce a residual field over sites: the join of its one part, so a
        field without sites raises ValueError.  The record keeps the part's
        summary for a join with the field's other row tiles."""
        part = _Summary.of(residual)
        rec = cls.join(name, [part], tolerance)
        rec.summary = part
        return rec

    @classmethod
    def join(cls, name, parts, tolerance):
        """The record of a field from the summaries of its row tiles, in row
        order.  Max and argmax are those of the whole field; the mean is the
        sum of the per-row sums over the site count, which does not depend on
        where the tiles cut.  A field without sites raises ValueError."""
        n = sum(math.prod(p.shape) for p in parts)
        if not n:
            raise ValueError("attempt to get argmax of an empty sequence")
        t = int(np.argmax([p.peak for p in parts]))  # the first tile holding the first NaN or the max
        shape = parts[0].shape if len(parts) == 1 else (sum(p.shape[0] for p in parts), *parts[0].shape[1:])
        k = sum(math.prod(p.shape) for p in parts[:t]) + parts[t].index
        return cls(
            name=name,
            max_residual=parts[t].peak,
            mean_residual=float(np.add.reduce(np.concatenate([p.row_sums for p in parts])) / n),
            argmax_site=tuple(int(s) for s in np.unravel_index(k, shape)) if shape else (),
            tolerance=float(tolerance),
        )


@dataclass
class InvariantReport:
    records: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, name, residual, tolerance):
        rec = IdentityRecord.from_field(name, residual, tolerance)
        self.records.append(rec)
        return rec

    def decide(self, flag):
        """A choice the suite makes over its whole batch; see ResidualTile."""
        return flag

    def __getitem__(self, name) -> IdentityRecord:
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(rec.passed for rec in self.records)

    def max_residual(self, name=None) -> float:
        recs = self.records if name is None else [self[name]]
        return max((r.max_residual for r in recs), default=0.0)

    def to_dict(self, include_meta=True):
        out = {
            "schema_version": 1,
            "conventions": dict(CONVENTIONS),
            "pass": self.passed,
            "identities": [rec.to_dict() for rec in self.records],
        }
        if include_meta and self.metadata:
            out["metadata"] = dict(self.metadata)
        return out

    def to_json(self, include_meta=True):
        return json.dumps(self.to_dict(include_meta=include_meta), indent=2, sort_keys=True)


@dataclass
class ResidualTile:
    """A suite's residual fields on one tile of its batch.

    A suite given a ResidualTile in place of an InvariantReport keeps each
    field, so that the unit that ran it reduces each one to its record
    (``IdentityRecord.from_field``) and the fields die with the unit.  The
    join of the records' summaries over all tiles is exact for max and
    argmax, as over the whole batch (``IdentityRecord.join``).
    ``decisions`` lists the whole-batch choices the suite made on this
    tile; the join is exact only if every tile made the same ones.
    ``metadata`` takes what a suite notes beside its records, as in an
    InvariantReport.
    """

    fields: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, name, residual, tolerance):
        self.fields.append((name, np.asarray(residual, dtype=float), tolerance))

    def decide(self, flag):
        self.decisions.append(flag)
        return flag
