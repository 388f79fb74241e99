"""Closed-form cost estimates for the triangle constructions.

Each variant has a bracket: the sum of the per-stage contributions to the
squared complexity (the positive-side cost stays at most 1, so the total is
the square root of the bracket).  The functions here evaluate the brackets at
arbitrary scale, optimize the tunables (x, a, b), and fit the growth exponent
of the optimized cost against n, next to the exponent the paper states for
the same growth law of m.

Scale parameters are continuous; nothing here materializes a graph.
``eval_cost`` checks only that its arguments are positive (and that n is at
least 2 where a log n factor enters), not where the tunables lie: the
optimizer keeps them inside their bounds itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

VARIANTS = ("dense", "sparse", "sparsenew")


def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if value is None or value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def _dense_bracket(n: float, x: float, a: float, b: float) -> float:
    probe = b + b * b / x
    inner = a * x * x + n * (b * b + (a / b) ** 2 * probe)
    return x * n * n + (a * x) ** 2 + (n / a) ** 2 * inner


def _sparse_bracket(n: float, m: float, x: float, a: float, b: float) -> float:
    density = m / (n * n)
    loads = x * n * n + (a * x) ** 2 + (n / a) ** 2 * (a * x * x + n * b * b)
    probe = (n / a) ** 2 * n * (a / b) ** 2 * (b + b * b / x)
    return math.log(n) * (density * loads + x * n + probe)


def _sparsenew_bracket(n: float, m: float, d2: float, b: float) -> float:
    density = m / (n * n)
    return n * (
        b * b * density * math.log(n)
        + (n * n / (b * b)) * (b + b * b * d2 * d2 / (n * n))
    )


def eval_cost(
    variant: str,
    n: float,
    m: float = 0.0,
    d2: float | None = None,
    x: float | None = None,
    a: float | None = None,
    b: float | None = None,
) -> float:
    """Estimated total complexity (square root of the variant's bracket)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    _require_positive(n=n, b=b)
    if variant == "dense":
        _require_positive(x=x, a=a)
        return math.sqrt(_dense_bracket(n, x, a, b))
    if not n >= 2:
        raise ValueError(f"n must be at least 2 for a log n factor, got {n}")
    if variant == "sparse":
        _require_positive(m=m, x=x, a=a)
        return math.sqrt(_sparse_bracket(n, m, x, a, b))
    _require_positive(m=m)
    if d2 is None:
        d2 = 2.0 * m / n
    if d2 < 0:
        raise ValueError("d2 must be nonnegative")
    return math.sqrt(_sparsenew_bracket(n, m, d2, b))


def analytic_params(
    variant: str, n: float, m: float = 0.0, d2: float | None = None
) -> dict[str, float]:
    """Parameter choices whose exponents match the optimized growth."""
    if variant == "dense":
        return {"x": math.sqrt(n), "a": n ** 0.75, "b": math.sqrt(n)}
    if variant == "sparse":
        _require_positive(m=m)
        xb = math.sqrt(n) / (m / (n * n)) ** (1.0 / 3.0)
        xb = min(xb, n ** 0.75)
        return {"x": xb, "a": n ** 0.75, "b": xb}
    if variant == "sparsenew":
        _require_positive(m=m)
        if not n >= 2:
            raise ValueError(f"n must be at least 2 for a log n factor, got {n}")
        b = n ** (4.0 / 3.0) / (m * math.log(n)) ** (1.0 / 3.0)
        return {"b": min(max(b, 2.0), float(n))}
    raise ValueError(f"unknown variant {variant!r}")


@dataclass
class OptimizedParams:
    variant: str
    n: float
    m: float
    d2: float | None
    cost: float
    seed_cost: float
    x: float | None = None
    a: float | None = None
    b: float | None = None

    def ints(self) -> dict[str, int]:
        """Round tunables to a feasible integer choice."""
        out: dict[str, int] = {}
        n = int(self.n)
        if self.b is not None:
            out["b"] = max(2, min(n, round(self.b)))
        if self.a is not None:
            out["a"] = max(out.get("b", 2), min(n, round(self.a)))
        if self.x is not None:
            out["x"] = max(1, min(n, round(self.x)))
        return out


def _descend(
    f: Callable[[dict[str, float]], float],
    params: dict[str, float],
    lo: dict[str, float],
    hi: dict[str, float],
) -> tuple[dict[str, float], float]:
    best = dict(params)
    best_val = f(best)
    for step in (4.0, 2.0, 1.4, 1.15, 1.05, 1.02, 1.005):
        improved = True
        while improved:
            improved = False
            for key in best:
                for cand in (best[key] * step, best[key] / step):
                    cand = min(max(cand, lo[key]), hi[key])
                    trial = dict(best)
                    trial[key] = cand
                    val = f(trial)
                    if val < best_val:
                        best, best_val = trial, val
                        improved = True
    return best, best_val


def optimize_params(
    variant: str, n: float, m: float = 0.0, d2: float | None = None
) -> OptimizedParams:
    """Tune (x, a, b) by log-scale coordinate descent from the analytic seed.

    The result never costs more than the seed.
    """
    seed = analytic_params(variant, n, m, d2)
    if variant == "sparsenew":

        def f(p: dict[str, float]) -> float:
            return eval_cost(variant, n, m, d2, b=p["b"])

        lo = {"b": 2.0}
        hi = {"b": float(n)}
    else:

        def f(p: dict[str, float]) -> float:
            if not p["b"] <= p["a"] <= n:
                return math.inf
            return eval_cost(variant, n, m, d2, x=p["x"], a=p["a"], b=p["b"])

        lo = {"x": 1.0, "a": 2.0, "b": 2.0}
        hi = {"x": float(n), "a": float(n), "b": float(n)}
    seed_cost = f(seed)
    best, best_val = _descend(f, seed, lo, hi)
    if best_val > seed_cost:
        best, best_val = seed, seed_cost
    return OptimizedParams(
        variant=variant,
        n=n,
        m=m,
        d2=d2,
        cost=best_val,
        seed_cost=seed_cost,
        **best,
    )


# ---------------------------------------------------------------------------
# Exponent fitting


@dataclass
class FitResult:
    exponent: float
    residual: float
    n_lo: int
    n_hi: int
    log_divided: str | None
    paper_exponent: float
    dominant: str | None = None
    total_exponent: float | None = None
    points: tuple[tuple[float, float, float], ...] = field(default=())

    @property
    def drift(self) -> float:
        """Fitted exponent minus the paper's."""
        return self.exponent - self.paper_exponent

    def to_json(self) -> dict:
        return {
            "exponent": self.exponent,
            "paper_exponent": self.paper_exponent,
            "drift": self.drift,
            "residual": self.residual,
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "log_divided": self.log_divided,
            "dominant": self.dominant,
            "total_exponent": self.total_exponent,
            "points": [list(p) for p in self.points],
        }


def parse_m_law(law: str) -> Callable[[float], float]:
    """Turn a growth law for m, ``n`` or a string like ``n^1.5``, into a
    callable."""
    text = law.strip().replace(" ", "")
    if text.startswith("n^"):
        exp = float(text[2:])
        return lambda n: n ** exp
    if text == "n":
        return lambda n: n
    raise ValueError(f"cannot parse m law {law!r}; use the form n^1.5")


def default_grid(lo: int = 2 ** 10, hi: int = 2 ** 24, points: int = 12) -> tuple[int, ...]:
    grid = np.unique(
        np.round(np.geomspace(lo, hi, points)).astype(np.int64)
    )
    return tuple(int(v) for v in grid)


def _slope(ns: Sequence[float], vals: Sequence[float]) -> tuple[float, float]:
    xs = np.log(np.asarray(ns, dtype=float))
    ys = np.log(np.asarray(vals, dtype=float))
    coeffs, res, *_ = np.polyfit(xs, ys, 1, full=True)
    rms = math.sqrt(res[0] / len(xs)) if len(res) else 0.0
    return float(coeffs[0]), rms


def _paper_exponent(variant: str, m_exponent: float, dominant: str | None) -> float:
    """The paper's exponent in n of the variant's bound when m grows like
    n^m_exponent: n^(5/4) for dense, n^(11/12) m^(1/6) for sparse, and for
    sparsenew n^(5/6) m^(1/6) (``power``) or d2 sqrt(n) with d2 = 2m/n
    (``degree``)."""
    if variant == "dense":
        return 5 / 4
    if variant == "sparse":
        return 11 / 12 + m_exponent / 6
    if dominant == "degree":
        return m_exponent - 1 / 2
    return 5 / 6 + m_exponent / 6


def fit_exponent(
    variant: str,
    m_law: str = "n^1.5",
    n_range: Sequence[int] | None = None,
) -> FitResult:
    """Least-squares growth exponent of the optimized cost.

    The declared logarithmic factor is divided out first (square root of
    log n for sparse, sixth root for the anchored variant).  The anchored
    variant has two candidate growth terms; the one that dominates at the
    top of the range is fitted and reported.  The paper's exponent takes
    m's growth as the log-log slope of the m law between the first and last
    grid point.
    """
    mf = parse_m_law(m_law)
    grid = tuple(n_range) if n_range is not None else default_grid()
    if variant == "sparse":
        grid = tuple(n for n in grid if mf(n) >= n ** 1.25)
    if len(grid) < 3:
        raise ValueError(f"need at least 3 grid points, got {len(grid)}")
    ns: list[float] = []
    power_vals: list[float] = []
    degree_vals: list[float] = []
    points: list[tuple[float, float, float]] = []
    for n in grid:
        m = mf(n)
        d2 = 2.0 * m / n if variant == "sparsenew" else None
        opt = optimize_params(variant, float(n), m, d2)
        if variant == "dense":
            corrected = opt.cost
            divided = None
        elif variant == "sparse":
            corrected = opt.cost / math.sqrt(math.log(n))
            divided = "sqrt(log n)"
        else:
            corrected = opt.cost / math.log(n) ** (1.0 / 6.0)
            divided = "log(n)^(1/6)"
            power_vals.append(
                eval_cost(variant, n, m, 0.0, b=opt.b)
                / math.log(n) ** (1.0 / 6.0)
            )
            degree_vals.append(d2 * math.sqrt(n))
        ns.append(float(n))
        points.append((float(n), opt.cost, corrected))
    slope, res = _slope(ns, [p[2] for p in points])
    dominant = total_slope = None
    if variant == "sparsenew":
        total_slope = slope
        dominant = "power" if power_vals[-1] >= degree_vals[-1] else "degree"
        vals = power_vals if dominant == "power" else degree_vals
        slope, res = _slope(ns, vals)
    m_exponent = math.log(mf(grid[-1]) / mf(grid[0])) / math.log(grid[-1] / grid[0])
    return FitResult(
        exponent=slope,
        residual=res,
        n_lo=int(grid[0]),
        n_hi=int(grid[-1]),
        log_divided=divided,
        paper_exponent=_paper_exponent(variant, m_exponent, dominant),
        dominant=dominant,
        total_exponent=total_slope,
        points=tuple(points),
    )
