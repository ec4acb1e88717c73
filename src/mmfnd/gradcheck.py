"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .tensor import Param


@dataclass
class GradCheckReport:
    """Worst relative error per parameter and overall."""

    per_param: dict[str, float] = field(default_factory=dict)
    max_rel_err: float = 0.0


def finite_diff_check(f, params: list[Param], h: float = 1e-4) -> GradCheckReport:
    """Compare the analytic gradient of ``f`` against central differences.

    ``f`` takes no arguments, reads the given params, and returns a 0-d
    tensor. Relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|); the report keeps the worst
    coordinate per parameter.
    """
    for p in params:
        p.grad[...] = 0.0
    out = f()
    if not math.isfinite(float(out.data)):
        raise FloatingPointError(f"objective evaluated to {float(out.data)}")
    out.backward()
    analytic = {p.name: p.grad.copy() for p in params}

    report = GradCheckReport()
    for p in params:
        flat = p.data.reshape(-1)
        grad = analytic[p.name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f().data)
            flat[i] = orig - h
            f_minus = float(f().data)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise FloatingPointError(f"objective non-finite while perturbing {p.name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * h)
            rel = abs(grad[i] - numeric) / max(1.0, abs(grad[i]))
            if rel > worst:
                worst = rel
        report.per_param[p.name] = worst
        report.max_rel_err = max(report.max_rel_err, worst)
    return report
