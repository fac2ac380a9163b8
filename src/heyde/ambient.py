"""The ambient group X = R x Z(2) x G and its dual Y = R x Z(2) x H.

G is a finite Abelian group of odd order, H its dual (identified with the
same residue vectors).  Points of X are (t, m, g) with t real, m in {0, 1};
points of Y are (s, n, h).  The pairing is

    pair((t, m, g), (s, n, h)) = exp(i*t*s) * (-1)**(m*n) * (g, h).

A topological automorphism of X considered here is alpha = (a, I, alpha_G)
with a a nonzero real scale on R, the identity on Z(2) and alpha_G an
automorphism of G.  Its adjoint acts on Y by (s, n, h) -> (a*s, n, B h)
where B is the adjoint matrix of alpha_G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .finite_abelian import (
    DualCharacter,
    FiniteAbelianGroup,
    GroupAutomorphism,
    GroupElement,
    pairing,
)

__all__ = [
    "AmbientGroup",
    "XPoint",
    "YPoint",
    "XAutomorphism",
    "YAutomorphism",
    "pair",
]


@dataclass(frozen=True)
class AmbientGroup:
    """R x Z(2) x G for a finite Abelian G of odd order."""

    G: FiniteAbelianGroup

    def __post_init__(self) -> None:
        if not self.G.is_odd_order:
            even = [n for n in self.G.cyclic_orders if n % 2 == 0]
            raise ValueError(f"finite part must have odd order, got even factors {even}")

    def point(self, t: float, m: int, g) -> "XPoint":
        if isinstance(g, GroupElement):
            if g.group != self.G:
                raise ValueError("finite coordinate belongs to a different group")
            gg = g
        else:
            gg = self.G.element(g)
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"real coordinate t must be finite, got {t}")
        return XPoint(self, t, int(m) % 2, gg)

    def dual_point(self, s: float, n: int, h) -> "YPoint":
        if isinstance(h, DualCharacter):
            if h.group != self.G:
                raise ValueError("dual coordinate belongs to a different group")
            hh = h
        else:
            hh = self.G.character(h)
        return YPoint(self, float(s), int(n) % 2, hh)

    def zero_point(self) -> "XPoint":
        return XPoint(self, 0.0, 0, self.G.zero())

    @property
    def order_two_point(self) -> "XPoint":
        """The unique element of order 2, p = (0, 1, 0)."""
        return XPoint(self, 0.0, 1, self.G.zero())

    def to_json(self) -> dict:
        return self.G.to_json()

    @classmethod
    def from_json(cls, data: dict) -> "AmbientGroup":
        return cls(FiniteAbelianGroup.from_json(data))


@dataclass(frozen=True)
class XPoint:
    group: AmbientGroup
    t: float
    m: int
    g: GroupElement

    def __add__(self, other: "XPoint") -> "XPoint":
        if other.group != self.group:
            raise ValueError("points belong to different groups")
        return XPoint(self.group, self.t + other.t, (self.m + other.m) % 2, self.g + other.g)

    def __neg__(self) -> "XPoint":
        return XPoint(self.group, -self.t, (-self.m) % 2, -self.g)

    def __sub__(self, other: "XPoint") -> "XPoint":
        return self + (-other)

    def to_json(self) -> dict:
        return {"t": self.t, "m": self.m, "g": list(self.g.coords)}

    @classmethod
    def from_json(cls, group: AmbientGroup, data: dict) -> "XPoint":
        return group.point(data["t"], data["m"], data["g"])


@dataclass(frozen=True)
class YPoint:
    group: AmbientGroup
    s: float
    n: int
    h: DualCharacter

    def __add__(self, other: "YPoint") -> "YPoint":
        if other.group != self.group:
            raise ValueError("points belong to different groups")
        return YPoint(self.group, self.s + other.s, (self.n + other.n) % 2, self.h + other.h)

    def __neg__(self) -> "YPoint":
        return YPoint(self.group, -self.s, (-self.n) % 2, -self.h)

    def __sub__(self, other: "YPoint") -> "YPoint":
        return self + (-other)

    def to_json(self) -> dict:
        return {"s": self.s, "n": self.n, "h": list(self.h.coords)}


def pair(x: XPoint, y: YPoint) -> complex:
    """Value of the character y at the point x."""
    if x.group != y.group:
        raise ValueError("point and dual point belong to different groups")
    return complex(
        pairing(x.group.G, x.g.coords, y.h.coords, [x.m], [y.n], [x.t], [y.s])[0, 0]
    )


@dataclass(frozen=True)
class XAutomorphism:
    """alpha = (a, I, alpha_G) acting on X; a must be nonzero."""

    group: AmbientGroup
    a: float
    alpha_G: GroupAutomorphism

    def __post_init__(self) -> None:
        if self.a == 0.0 or not math.isfinite(self.a):
            raise ValueError(f"real scale a must be finite and nonzero, got {self.a}")
        if self.alpha_G.group != self.group.G:
            raise ValueError("alpha_G acts on a different finite group")
        object.__setattr__(self, "a", float(self.a))

    def __call__(self, x: XPoint) -> XPoint:
        if x.group != self.group:
            raise ValueError("point belongs to a different group")
        return XPoint(self.group, self.a * x.t, x.m, self.alpha_G(x.g))

    def compose(self, other: "XAutomorphism") -> "XAutomorphism":
        if other.group != self.group:
            raise ValueError("automorphisms act on different groups")
        return XAutomorphism(self.group, self.a * other.a, self.alpha_G.compose(other.alpha_G))

    def adjoint(self) -> "YAutomorphism":
        return YAutomorphism(self.group, self.a, self.alpha_G.adjoint())

    def to_json(self) -> dict:
        return {"a": self.a, "alpha_G": self.alpha_G.to_json()}

    @classmethod
    def from_json(cls, group: AmbientGroup, data: dict) -> "XAutomorphism":
        return cls(group, float(data["a"]), GroupAutomorphism.from_json(group.G, data["alpha_G"]))


@dataclass(frozen=True)
class YAutomorphism:
    """Adjoint action on Y: (s, n, h) -> (a*s, n, alpha_H h)."""

    group: AmbientGroup
    a: float
    alpha_H: GroupAutomorphism

    def __call__(self, y: YPoint) -> YPoint:
        if y.group != self.group:
            raise ValueError("dual point belongs to a different group")
        return YPoint(self.group, self.a * y.s, y.n, self.alpha_H(y.h))

    def compose(self, other: "YAutomorphism") -> "YAutomorphism":
        if other.group != self.group:
            raise ValueError("cannot compose maps on different groups")
        return YAutomorphism(
            self.group, self.a * other.a, self.alpha_H.compose(other.alpha_H)
        )

