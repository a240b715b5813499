"""The fuzzy membership kernels, and their descriptions in model files.

A kernel maps a value onto [0, 1] according to how close it sits to its
peak. Scoring feeds it the entropy of a feature's two-value ratio
(``scoring.feature_membership``), which lies in [0, 1].

Each kernel has two forms. ``evaluate`` maps one value, on Python
floats: it is the reference. ``evaluate_column`` maps a float array of
them at once, with no Python frame per value, and gives evaluate's bits
for every value of magnitude below 2**53, so for every entropy. The
basic operations (differences, quotients) and the comparisons run in
numpy, which rounds them as Python does. The bell's square and
exponential stay libm calls on Python floats, through a C-level
``map``: ``u * u`` and np.exp differ from ``u ** 2`` and math.exp in
the last bit on some inputs. Python's floats overflow to inf and NaN
without a word, so the columns silence numpy's warnings about them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .geometry import finite_number, python_number


def _keep_python_numbers(kernel) -> None:
    """Store each of a kernel's checked fields that is a numpy scalar as its Python value."""
    for f in fields(kernel):
        object.__setattr__(kernel, f.name, python_number(getattr(kernel, f.name)))


@dataclass(frozen=True)
class BellKernel:
    """Smooth bump peaking at ``r``: (1 - u) * exp(-u) with u = ((x - r) / r)^2.

    The formula is evaluated literally, without clamping. For x in
    [0, 2r] the value lies in [0, 1]; outside that band it can dip
    slightly negative (global minimum -exp(-2) at |x - r| = r * sqrt(2)).
    """

    r: float = 1.0

    def __post_init__(self) -> None:
        if finite_number("bell peak", self.r) <= 0.0:
            raise ValueError(f"bell peak must be a positive real, got {self.r!r}")
        _keep_python_numbers(self)

    def evaluate(self, x: float) -> float:
        u = ((x - self.r) / self.r) ** 2
        return (1.0 - u) * math.exp(-u)

    def evaluate_column(self, x: np.ndarray) -> np.ndarray:
        """evaluate of each element of a 1-D float array, bit for bit."""
        r = float(self.r)  # Python's arithmetic takes an int peak at its float
        with np.errstate(over="ignore", invalid="ignore"):
            # math.pow(q, 2.0) and evaluate's q ** 2 are both libm's pow(q, 2.0)
            u = np.fromiter(map(math.pow, ((x - r) / r).tolist(), repeat(2.0)), float, len(x))
            return (1.0 - u) * np.fromiter(map(math.exp, (-u).tolist()), float, len(x))


@dataclass(frozen=True)
class TriangleKernel:
    """Linear spike: 0 at p, rising to 1 at r, falling back to 0 at q.

    Zero outside [p, q].
    """

    p: float = 0.0
    r: float = 1.0
    q: float = 2.0

    def __post_init__(self) -> None:
        _check_ramps(self, "triangle", "p < r < q", "p", "r", "r", "q")

    def evaluate(self, x: float) -> float:
        return _ramps(x, self.p, self.r, self.r, self.q)

    def evaluate_column(self, x: np.ndarray) -> np.ndarray:
        """evaluate of each element of a 1-D float array, bit for bit, below 2**53 in magnitude."""
        return _ramps_column(x, self.p, self.r, self.r, self.q)


@dataclass(frozen=True)
class TrapezoidKernel:
    """Ramp up on (p, s], plateau at 1 on (s, t], ramp down on (t, q].

    Zero outside [p, q].
    """

    p: float = 0.0
    s: float = 0.9
    t: float = 1.0
    q: float = 1.1

    def __post_init__(self) -> None:
        _check_ramps(self, "trapezoid", "p < s <= t < q", "p", "s", "t", "q")

    def evaluate(self, x: float) -> float:
        return _ramps(x, self.p, self.s, self.t, self.q)

    def evaluate_column(self, x: np.ndarray) -> np.ndarray:
        """evaluate of each element of a 1-D float array, bit for bit, below 2**53 in magnitude."""
        return _ramps_column(x, self.p, self.s, self.t, self.q)


def _check_ramps(kernel, kind: str, rule: str, *names: str) -> None:
    """Check a kernel as the trapezoid whose (p, s, t, q) are its fields ``names``.

    The breakpoints must be finite numbers, kept as Python numbers, in
    order, and the spans that evaluate divides by, s - p and q - t, taken
    in their own types, finite floats.
    """
    for name in dict.fromkeys(names):
        finite_number(f"{kind} breakpoint '{name}'", getattr(kernel, name))
    _keep_python_numbers(kernel)
    p, s, t, q = (getattr(kernel, name) for name in names)
    if not (p < s <= t < q):
        raise ValueError(f"{kind} breakpoints must satisfy {rule}, got {kernel!r}")
    for span, (low, high) in ((s - p, names[:2]), (q - t, names[2:])):
        try:
            if math.isfinite(span):
                continue
        except OverflowError:  # an int too large for a float
            pass
        raise ValueError(f"{kind} breakpoint span {high} - {low} overflows a float: {kernel!r}")


def _ramps(x: float, p, s, t, q) -> float:
    """The trapezoid's membership of x; the triangle's is the trapezoid's with s = t = r."""
    if x <= p or x > q:
        return 0.0
    if x <= s:
        return (x - p) / (s - p)
    if x <= t:
        return 1.0
    return (q - x) / (q - t)


def _ramps_column(x: np.ndarray, p, s, t, q) -> np.ndarray:
    """_ramps of each element of a 1-D float array, bit for bit, below 2**53 in magnitude."""
    # each span in _ramps' types, an int one exact, then at its float
    p, s, t, q, rise, fall = map(float, (p, s, t, q, s - p, q - t))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where((x <= p) | (x > q), 0.0,
                        np.where(x <= s, (x - p) / rise,
                                 np.where(x <= t, 1.0, (q - x) / fall)))


MembershipKernel = BellKernel | TriangleKernel | TrapezoidKernel

# kernels by name: the CLI's choices and the type tags of saved kernels;
# bell is the scoring default
DEFAULT_KERNELS: dict[str, MembershipKernel] = {
    "bell": BellKernel(),
    "triangle": TriangleKernel(),
    "trapezoid": TrapezoidKernel(),
}


def check_entropy_kernel(kernel: MembershipKernel) -> None:
    """Raise unless the kernel's membership stays in [0, 1] over the entropy range [0, 1]."""
    if not isinstance(kernel, MembershipKernel):
        raise ValueError(f"unknown kernel {kernel!r}")
    # the bell stays in [0, 1] only on [0, 2r], so it must cover all of [0, 1]
    if isinstance(kernel, BellKernel) and kernel.r < 0.5:
        raise ValueError(f"bell kernel peak 'r' must be >= 0.5, got {kernel.r!r}")


def kernel_to_dict(kernel: MembershipKernel) -> dict:
    """The kernel's type name from DEFAULT_KERNELS plus each of that type's fields."""
    for name, default in DEFAULT_KERNELS.items():
        if isinstance(kernel, type(default)):
            return {"type": name, **{f.name: getattr(kernel, f.name) for f in fields(default)}}
    raise ValueError(f"unknown kernel {kernel!r}")


def kernel_from_dict(data: dict) -> MembershipKernel:
    """Inverse of kernel_to_dict; every field of the type must be given, and no other."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError(f"kernel description must be a dict with a 'type', got {data!r}")
    kind = data["type"]
    # a non-string type (say a list) cannot be a key, and names no kernel
    default = DEFAULT_KERNELS.get(kind) if isinstance(kind, str) else None
    if default is None:
        raise ValueError(f"unknown kernel type {kind!r}")
    names = [f.name for f in fields(default)]
    unknown = [key for key in data if key != "type" and key not in names]
    if unknown:
        raise ValueError(
            f"unknown field(s) for kernel type {kind!r}: {', '.join(map(repr, unknown))}"
        )
    try:
        return type(default)(
            **{name: finite_number(f"kernel field '{name}'", data[name]) for name in names}
        )
    except KeyError as exc:
        raise ValueError(f"kernel description missing field {exc}") from None
