"""The fuzzy membership kernels, and their descriptions in model files.

A kernel maps a value onto [0, 1] according to how close it sits to its
peak. Scoring feeds it the entropy of a feature's two-value ratio
(``scoring.feature_membership``), which lies in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .geometry import finite_number


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

    def evaluate(self, x: float) -> float:
        u = ((x - self.r) / self.r) ** 2
        return (1.0 - u) * math.exp(-u)


@dataclass(frozen=True)
class TriangleKernel:
    """Linear spike: 0 at p, rising to 1 at r, falling back to 0 at q.

    Zero outside [p, q].
    """

    p: float = 0.0
    r: float = 1.0
    q: float = 2.0

    def __post_init__(self) -> None:
        for name in ("p", "r", "q"):
            finite_number(f"triangle breakpoint '{name}'", getattr(self, name))
        if not (self.p < self.r < self.q):
            raise ValueError(
                f"triangle breakpoints must satisfy p < r < q, got {self.p}, {self.r}, {self.q}"
            )

    def evaluate(self, x: float) -> float:
        if x <= self.p or x > self.q:
            return 0.0
        if x <= self.r:
            return (x - self.p) / (self.r - self.p)
        return (self.q - x) / (self.q - self.r)


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
        for name in ("p", "s", "t", "q"):
            finite_number(f"trapezoid breakpoint '{name}'", getattr(self, name))
        if not (self.p < self.s <= self.t < self.q):
            raise ValueError(
                "trapezoid breakpoints must satisfy p < s <= t < q, "
                f"got {self.p}, {self.s}, {self.t}, {self.q}"
            )

    def evaluate(self, x: float) -> float:
        if x <= self.p or x > self.q:
            return 0.0
        if x <= self.s:
            return (x - self.p) / (self.s - self.p)
        if x <= self.t:
            return 1.0
        return (self.q - x) / (self.q - self.t)


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
