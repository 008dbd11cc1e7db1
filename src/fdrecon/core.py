"""Data model, CSV ingestion, observed-domain detection and completeness classification."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, ParseError, UsageError

DEFAULT_GRID_SIZE = 51
DEFAULT_COMPLETE_MARGIN = 0.1

CSV_HEADER = ("curve_id", "u", "y")


@dataclass(frozen=True)
class DomainGrid:
    """Equally spaced evaluation grid u_1 = a, ..., u_L = b."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise DataError("grid needs at least two points")
        diffs = np.diff(pts)
        if np.any(diffs <= 0):
            raise DataError("grid points must be strictly increasing")
        span = pts[-1] - pts[0]
        if np.max(np.abs(diffs - diffs[0])) > 1e-12 * span:
            raise DataError("grid points must be equally spaced")

    @classmethod
    def regular(cls, domain: Sequence[float], size: int = DEFAULT_GRID_SIZE) -> "DomainGrid":
        a, b = float(domain[0]), float(domain[1])
        if not b > a:
            raise DataError(f"invalid domain [{a}, {b}]")
        return cls(np.linspace(a, b, int(size)))

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def delta(self) -> float:
        return float((self.b - self.a) / (self.size - 1))

    def trapezoid_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights over the full grid."""
        w = np.full(self.size, self.delta)
        w[0] = w[-1] = 0.5 * self.delta
        return w


@dataclass(frozen=True)
class Curve:
    """One partially observed curve: sorted observation pairs plus its observed interval."""

    id: str
    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if u.ndim != 1 or u.shape != y.shape:
            raise DataError(f"curve {self.id!r}: u and y must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise DataError(f"curve {self.id!r}: non-finite observation")
        order = np.argsort(u, kind="stable")
        u, y = u[order], y[order]
        if np.unique(u).size < 2:
            raise DataError(f"curve {self.id!r}: fewer than two distinct abscissae")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    @property
    def observed_interval(self) -> tuple[float, float]:
        return float(self.u[0]), float(self.u[-1])

    @property
    def n_obs(self) -> int:
        return self.u.size


@dataclass(frozen=True)
class FunctionalDataset:
    """A sample of curves on a common domain with an evaluation grid."""

    curves: tuple[Curve, ...]
    domain: tuple[float, float]
    grid: DomainGrid = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.curves:
            raise DataError("no curves")
        a, b = float(self.domain[0]), float(self.domain[1])
        if not b > a:
            raise DataError(f"invalid domain [{a}, {b}]")
        object.__setattr__(self, "curves", tuple(self.curves))
        object.__setattr__(self, "domain", (a, b))
        for c in self.curves:
            lo, hi = c.observed_interval
            if lo < a - 1e-12 * (b - a) or hi > b + 1e-12 * (b - a):
                raise DataError(
                    f"curve {c.id!r} observed on [{lo:.6g}, {hi:.6g}] outside domain [{a:.6g}, {b:.6g}]"
                )
        if self.grid is None:
            object.__setattr__(self, "grid", DomainGrid.regular((a, b)))

    @property
    def n_curves(self) -> int:
        return len(self.curves)

    def curve(self, curve_id: str) -> Curve:
        for c in self.curves:
            if c.id == curve_id:
                return c
        raise DataError(f"no curve with id {curve_id!r}")

    def pooled_u(self) -> np.ndarray:
        return np.concatenate([c.u for c in self.curves])

    def pooled_y(self) -> np.ndarray:
        return np.concatenate([c.y for c in self.curves])


def build_dataset(
    curves: Iterable[Curve],
    domain: Sequence[float] | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> FunctionalDataset:
    """Assemble a dataset; domain defaults to the global observation extrema."""
    curves = list(curves)
    if not curves:
        raise DataError("no curves")
    if domain is None:
        lo = min(c.observed_interval[0] for c in curves)
        hi = max(c.observed_interval[1] for c in curves)
        domain = (lo, hi)
    grid = DomainGrid.regular(domain, grid_size)
    return FunctionalDataset(tuple(curves), (float(domain[0]), float(domain[1])), grid)


def load_dataset(
    path,
    domain: Sequence[float] | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> FunctionalDataset:
    """Load curves from a ``curve_id,u,y`` CSV file.

    Rows are grouped by curve id and sorted by abscissa; duplicate (id, u)
    rows are kept with ties broken by file order. The domain defaults to the
    global extrema of the observations; an explicit domain rejects (rather
    than clips) observations outside it.

    Parameters
    ----------
    path : str or os.PathLike
        CSV file with header ``curve_id,u,y``.
    domain : (float, float), optional
        Study domain [a, b]. Defaults to the observation extrema.
    grid_size : int
        Number of points of the regular evaluation grid.

    Raises
    ------
    ParseError
        On a malformed row (carries the line number).
    DataError
        On an empty file or a curve with fewer than two distinct abscissae.
    """
    by_id: dict[str, tuple[list[float], list[float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("no curves") from None
        if [h.strip() for h in header] != list(CSV_HEADER):
            raise ParseError(f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
            cid = row[0].strip()
            try:
                u = float(row[1])
                y = float(row[2])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if not (math.isfinite(u) and math.isfinite(y)):
                raise ParseError(f"non-finite value in row {row!r}", line=lineno)
            us, ys = by_id.setdefault(cid, ([], []))
            us.append(u)
            ys.append(y)
    if not by_id:
        raise DataError("no curves")
    curves = [Curve(cid, np.array(us), np.array(ys)) for cid, (us, ys) in by_id.items()]
    return build_dataset(curves, domain=domain, grid_size=grid_size)


def write_dataset_csv(dataset: FunctionalDataset, path) -> None:
    """Serialize a dataset back to the ``curve_id,u,y`` CSV shape."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for c in dataset.curves:
            for u, y in zip(c.u, c.y):
                writer.writerow([c.id, repr(float(u)), repr(float(y))])


def classify_complete(
    dataset: FunctionalDataset,
    margin_fraction: float = DEFAULT_COMPLETE_MARGIN,
) -> set[str]:
    """Ids of curves whose observations reach both domain ends within the margin.

    A curve counts as completely observed when its smallest abscissa lies in
    [a, a + margin*(b-a)] and its largest in [b - margin*(b-a), b].
    """
    if not 0.0 < margin_fraction < 0.5:
        raise UsageError(f"margin_fraction must be in (0, 0.5), got {margin_fraction}")
    a, b = dataset.domain
    margin = margin_fraction * (b - a)
    out = set()
    for c in dataset.curves:
        lo, hi = c.observed_interval
        if lo <= a + margin and hi >= b - margin:
            out.add(c.id)
    return out


def dataset_summary(
    dataset: FunctionalDataset,
    margin_fraction: float = DEFAULT_COMPLETE_MARGIN,
) -> dict:
    """JSON-serializable summary: curve count, per-curve intervals, completeness flags."""
    complete = classify_complete(dataset, margin_fraction)
    return {
        "n_curves": dataset.n_curves,
        "domain": list(dataset.domain),
        "grid_size": dataset.grid.size,
        "curves": [
            {
                "id": c.id,
                "n_obs": c.n_obs,
                "interval": list(c.observed_interval),
                "complete": c.id in complete,
            }
            for c in dataset.curves
        ],
    }


def summary_json(dataset: FunctionalDataset, margin_fraction: float = DEFAULT_COMPLETE_MARGIN) -> str:
    return json.dumps(dataset_summary(dataset, margin_fraction), indent=2, sort_keys=True)
