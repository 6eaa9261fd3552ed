"""Named residual statistics for verified identities."""

import json
from dataclasses import dataclass, field

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


def _check_residual(residual, tolerance, error):
    """Raise ``error(site, value)`` at the worst site of a residual field
    unless every site is within ``tolerance``.  As in ``IdentityRecord.passed``
    a site passes only when its residual is at most the tolerance, so NaN
    fails, and the first NaN is the worst site."""
    r = np.asarray(residual)
    if r.size and not np.max(r) <= tolerance:
        site = tuple(int(i) for i in np.unravel_index(int(np.argmax(r)), r.shape))
        raise error(site, float(r[site]))


@dataclass
class IdentityRecord:
    name: str
    max_residual: float
    mean_residual: float
    argmax_site: tuple
    tolerance: float

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
        """Reduce a residual array over sites (deterministic order)."""
        r = np.abs(np.asarray(residual, dtype=float))
        flat = r.reshape(-1)
        k = int(np.argmax(flat))
        site = np.unravel_index(k, r.shape) if r.ndim else ()
        return cls(
            name=name,
            max_residual=float(flat[k]) if flat.size else 0.0,
            mean_residual=float(flat.mean()) if flat.size else 0.0,
            argmax_site=tuple(int(s) for s in site),
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

    def to_json(self, include_meta=True, indent=2):
        return json.dumps(self.to_dict(include_meta=include_meta), indent=indent, sort_keys=True)


@dataclass
class ResidualTile:
    """A suite's unreduced residual fields on one tile of its batch.

    A suite given a ResidualTile in place of an InvariantReport keeps each
    field instead of reducing it, so the fields of all tiles can be joined
    and every identity reduced once, exactly as over the whole batch.
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
