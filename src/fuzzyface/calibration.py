"""Online training of the mixing weight from genuine-pair scores.

Each genuine comparison contributes two bracket candidates: the weight
that would have produced a 0.95 similarity fraction for that pair and
the weight that would have produced 1.0. The state keeps a low and a
high bracket; a candidate strictly inside the current bracket replaces
its end, otherwise the end is pulled toward the candidate by a running
average. The final weight is the bracket midpoint.

Updates are order-dependent by design, so a state must be fed
sequentially by a single owner.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .geometry import finite_number, in_range, python_number


class DegenerateSampleError(ValueError):
    """Raised when a sample's feature score does not exceed its alpha."""


@dataclass(frozen=True)
class CalibrationSample:
    """The two blended terms of one genuine pair's report."""

    feature_score: float
    alpha: float

    def __post_init__(self) -> None:
        for label, value in (("feature_score", self.feature_score), ("alpha", self.alpha)):
            finite_number(label, value)
            object.__setattr__(self, label, in_range(label, value, 0, 1))


def solve_weight(target: float, feature_score: float, alpha: float) -> float:
    """Mixing weight at which the blend would equal ``target``, clamped to [0, 1].

    Inverts target = feature_score * k + alpha * (1 - k) for k. Requires
    feature_score strictly above alpha; otherwise the sample carries no
    usable direction and DegenerateSampleError is raised. Each argument
    must be a finite int or float, not a bool.
    """
    if not 0.0 < finite_number("target", target) <= 1.0:
        raise ValueError(f"target must lie in (0, 1], got {target!r}")
    finite_number("feature_score", feature_score)
    finite_number("alpha", alpha)
    target, feature_score, alpha = map(python_number, (target, feature_score, alpha))
    if feature_score <= alpha:
        raise DegenerateSampleError(
            f"feature_score {feature_score!r} must exceed alpha {alpha!r}"
        )
    t = (target - alpha) / (feature_score - alpha)
    return min(1.0, max(0.0, t))


@dataclass
class CalibrationState:
    """Running bracket (k1 <= k2) over accepted samples.

    ``n`` counts accepted samples, ``skipped`` the degenerate ones. The
    first accepted sample seeds the bracket directly.
    """

    k1: float = 0.0
    k2: float = 0.0
    n: int = 0
    skipped: int = 0

    @property
    def initialized(self) -> bool:
        return self.n >= 1

    def update(self, sample: CalibrationSample) -> None:
        """Fold one sample into the bracket; degenerates are counted, not raised."""
        if sample.feature_score <= sample.alpha:
            self.skipped += 1
            return
        t1 = solve_weight(0.95, sample.feature_score, sample.alpha)
        t2 = solve_weight(1.0, sample.feature_score, sample.alpha)
        if not self.initialized:
            self.k1 = t1
            self.k2 = t2
            self.n = 1
            return
        # strictly-inside candidates replace a bracket end; others are averaged in
        if self.k1 < t1 < self.k2:
            self.k1 = t1
        else:
            self.k1 = (t1 + self.n * self.k1) / (self.n + 1)
        if self.k1 < t2 < self.k2:
            self.k2 = t2
        else:
            self.k2 = (t2 + self.n * self.k2) / (self.n + 1)
        if self.k1 > self.k2:
            self.k1, self.k2 = self.k2, self.k1
        self.n += 1

    def finalize(self) -> float:
        """Midpoint of the bracket; requires at least one accepted sample."""
        if not self.initialized:
            raise ValueError("cannot finalize an empty calibration state")
        return (self.k1 + self.k2) / 2.0


def calibrate(samples: Iterable[CalibrationSample]) -> CalibrationState:
    """Feed a sample stream, in order, into a fresh state."""
    state = CalibrationState()
    for sample in samples:
        state.update(sample)
    return state
