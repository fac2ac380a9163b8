"""Finite Abelian groups presented as products of cyclic groups.

A group is Z(n_1) x ... x Z(n_r).  Elements are residue vectors, and the
dual group is identified with the same product: the character labelled by
h sends g to exp(2*pi*i * sum_k g_k*h_k / n_k).  Every character value in
the package comes from one vectorized kernel, pairing_phase() with its
value form pairing(), which also carries the R and Z(2) slots of the
ambient group; it reduces the finite phase to an integer numerator mod
lcm(n_1..n_r), so values are exact roots of unity up to one complex
exponential rounding.

Automorphisms are integer matrices acting on residue vectors.  A matrix A
gives a well defined endomorphism iff A[k][j]*n_j = 0 mod n_k for all j, k;
bijectivity is checked by exhaustive enumeration, which bounds the usable
group order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "FiniteAbelianGroup",
    "GroupElement",
    "DualCharacter",
    "GroupAutomorphism",
    "eval_character",
    "pairing",
    "pairing_phase",
    "kernel_of_I_plus",
    "negation_automorphism",
    "scalar_automorphism",
    "char_table",
]

# Exhaustive checks (bijectivity, kernels) stay cheap only up to this order.
MAX_ENUMERABLE_ORDER = 100_000


def _reduced(coords: Iterable[int], orders: tuple[int, ...]) -> tuple[int, ...]:
    cs = tuple(int(c) for c in coords)
    if len(cs) != len(orders):
        raise ValueError(f"expected {len(orders)} coordinates, got {len(cs)}")
    return tuple(c % n for c, n in zip(cs, orders))


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups Z(n_1) x ... x Z(n_r)."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = tuple(int(n) for n in self.cyclic_orders)
        if not orders:
            raise ValueError("cyclic_orders must be nonempty; the trivial group is [1]")
        if any(n < 1 for n in orders):
            raise ValueError(f"cyclic orders must be >= 1, got {orders}")
        object.__setattr__(self, "cyclic_orders", orders)

    @property
    def rank(self) -> int:
        return len(self.cyclic_orders)

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_orders)

    @property
    def is_odd_order(self) -> bool:
        return self.order % 2 == 1

    @property
    def exponent_lcm(self) -> int:
        return math.lcm(*self.cyclic_orders)

    def element(self, coords: Iterable[int]) -> "GroupElement":
        return GroupElement(self, _reduced(coords, self.cyclic_orders))

    def character(self, coords: Iterable[int]) -> "DualCharacter":
        return DualCharacter(self, _reduced(coords, self.cyclic_orders))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def trivial_character(self) -> "DualCharacter":
        return DualCharacter(self, (0,) * self.rank)

    def elements(self) -> Iterator["GroupElement"]:
        for coords in product(*(range(n) for n in self.cyclic_orders)):
            yield GroupElement(self, coords)

    def elements_at(self, coords: np.ndarray) -> list["GroupElement"]:
        """The elements at the rows of an (N, rank) array of residue
        vectors that are reduced already, with no per-element reduction."""
        return [GroupElement(self, c) for c in map(tuple, coords.tolist())]

    def characters(self) -> Iterator["DualCharacter"]:
        for coords in product(*(range(n) for n in self.cyclic_orders)):
            yield DualCharacter(self, coords)

    def index_of(self, coords):
        """Mixed-radix index of residue vectors, row-major over elements().

        Accepts a plain coordinate sequence, a GroupElement, a DualCharacter
        (dual coordinates index the same radix grid), or an integer array
        whose last axis holds coordinates, which gives an array of indices.
        """
        if isinstance(coords, (GroupElement, DualCharacter)):
            coords = coords.coords
        orders = np.array(self.cyclic_orders, dtype=np.int64)
        reduced = np.asarray(coords, dtype=np.int64) % orders
        flat = np.ravel_multi_index(tuple(np.moveaxis(reduced, -1, 0)), self.cyclic_orders)
        return flat if np.ndim(flat) else int(flat)

    def all_coords(self) -> np.ndarray:
        """All residue vectors as an (order, rank) integer array, index order."""
        return np.indices(self.cyclic_orders, dtype=np.int64).reshape(self.rank, self.order).T

    def to_json(self) -> dict:
        return {"cyclic_orders": list(self.cyclic_orders)}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteAbelianGroup":
        return cls(tuple(data["cyclic_orders"]))


def _check_same_group(a, b) -> None:
    if a.group != b.group:
        raise ValueError("operands belong to different groups")


@dataclass(frozen=True)
class _ResidueVector:
    """Residue vector of a group or of its dual; sums and negatives stay in
    the operands' class, and vectors of different classes never compare
    equal."""

    group: FiniteAbelianGroup
    coords: tuple[int, ...]

    def __add__(self, other):
        _check_same_group(self, other)
        return type(self)(
            self.group,
            tuple((a + b) % n for a, b, n in zip(self.coords, other.coords, self.group.cyclic_orders)),
        )

    def __neg__(self):
        return type(self)(
            self.group, tuple((-a) % n for a, n in zip(self.coords, self.group.cyclic_orders))
        )

    def __sub__(self, other):
        return self + (-other)

    def to_json(self) -> list[int]:
        return list(self.coords)


class GroupElement(_ResidueVector):
    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


class DualCharacter(_ResidueVector):
    """Character of the group, labelled by a residue vector of the dual."""

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __call__(self, g: GroupElement) -> complex:
        return eval_character(self, g)


def pairing_phase(group: FiniteAbelianGroup, g, h, m=None, n=None, t=None, s=None):
    """Phase and parity of the pairing at K points by Q dual points.

    The pairing of (t, m, g) with (s, n, h) is (-1)**odd * exp(i*angle),
    angle = t*s + 2*pi*num/lcm and odd = m*n mod 2, where num is the finite
    phase as an integer numerator mod lcm.  g is a (K, rank) and h a
    (Q, rank) array of residue vectors; m and t have shape (K,), n and s
    shape (Q,), and omitted Z(2) or R slots are 0 (odd is then None).
    Returns angle and odd as (K, Q) arrays.
    """
    orders = np.array(group.cyclic_orders, dtype=np.int64)
    lcm = group.exponent_lcm
    g = np.asarray(g, dtype=np.int64).reshape(-1, group.rank)
    h = np.asarray(h, dtype=np.int64).reshape(-1, group.rank)
    nums = (g @ (h % orders * (lcm // orders)).T) % lcm
    angle = 2.0 * np.pi * (nums / lcm)
    if t is not None:
        angle += np.multiply.outer(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    odd = None
    if m is not None:
        parity = np.multiply.outer(np.asarray(m, dtype=np.int64), np.asarray(n, dtype=np.int64))
        odd = parity & 1 == 1
    return angle, odd


def pairing(group: FiniteAbelianGroup, g, h, m=None, n=None, t=None, s=None) -> np.ndarray:
    """Values exp(i*t*s) * (-1)**(m*n) * (g, h) at K points by Q dual points.

    Arguments as in pairing_phase; the parity enters as an exact sign.  The
    result has shape (K, Q).
    """
    angle, odd = pairing_phase(group, g, h, m, n, t, s)
    vals = np.exp(1j * angle)
    if odd is not None:
        np.negative(vals, out=vals, where=odd)
    return vals


def eval_character(h: DualCharacter, g: GroupElement) -> complex:
    """Value of the character h at the element g, a root of unity."""
    _check_same_group(h, g)
    return complex(pairing(g.group, g.coords, h.coords)[0, 0])


def char_table(group: FiniteAbelianGroup) -> np.ndarray:
    """Dense table T[i, j] = value of character j at element i, index order.

    A reference for tests; evaluation code calls pairing() on the points it
    needs instead of building this |G| x |G| table.
    """
    coords = group.all_coords()
    return pairing(group, coords, coords)


@dataclass(frozen=True)
class GroupAutomorphism:
    """Integer matrix acting on residue vectors, validated at construction.

    Validation is eager: well-definedness is the congruence test on entries,
    bijectivity is an exhaustive image count (groups of order above
    MAX_ENUMERABLE_ORDER are rejected).
    """

    group: FiniteAbelianGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        r = self.group.rank
        rows = tuple(tuple(int(x) for x in row) for row in self.matrix)
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ValueError(f"matrix must be {r}x{r} for this group")
        orders = self.group.cyclic_orders
        rows = tuple(
            tuple(x % orders[k] for x in row) for k, row in enumerate(rows)
        )
        object.__setattr__(self, "matrix", rows)
        for k in range(r):
            for j in range(r):
                if (rows[k][j] * orders[j]) % orders[k] != 0:
                    raise ValueError(
                        f"matrix entry [{k}][{j}]={rows[k][j]} does not respect "
                        f"orders {orders}: not a well defined endomorphism"
                    )
        if self.group.order > MAX_ENUMERABLE_ORDER:
            raise ValueError(
                f"group order {self.group.order} exceeds the exhaustive "
                f"validation bound {MAX_ENUMERABLE_ORDER}"
            )
        if not self._is_bijective():
            raise ValueError("matrix is not bijective on the group")

    def _is_bijective(self) -> bool:
        return len(np.unique(self.index_map())) == self.group.order

    def _apply_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        orders = self.group.cyclic_orders
        return tuple(
            sum(self.matrix[k][j] * coords[j] for j in range(self.group.rank)) % orders[k]
            for k in range(self.group.rank)
        )

    def __call__(self, x: GroupElement | DualCharacter):
        if x.group != self.group:
            raise ValueError("element belongs to a different group")
        return type(x)(self.group, self._apply_coords(x.coords))

    def compose(self, other: "GroupAutomorphism") -> "GroupAutomorphism":
        """self after other, as a single matrix."""
        if other.group != self.group:
            raise ValueError("automorphisms act on different groups")
        a = np.array(self.matrix, dtype=np.int64)
        b = np.array(other.matrix, dtype=np.int64)
        return GroupAutomorphism(self.group, tuple(tuple(int(x) for x in row) for row in a @ b))

    def adjoint(self) -> "GroupAutomorphism":
        """Dual-side matrix B with (Ag, h) = (g, Bh) for all g, h.

        B[j][k] = A[k][j] * n_j / n_k, an integer exactly when A is well
        defined.
        """
        orders = np.array(self.group.cyclic_orders, dtype=np.int64)
        mat = np.array(self.matrix, dtype=np.int64)
        adj = mat.T * orders[:, None] // orders[None, :] % orders[:, None]
        return GroupAutomorphism(self.group, tuple(map(tuple, adj.tolist())))

    def index_map(self) -> np.ndarray:
        """Permutation p with p[index_of(x)] = index_of(self(x))."""
        mat = np.array(self.matrix, dtype=np.int64)
        return self.group.index_of(self.group.all_coords() @ mat.T)

    def to_json(self) -> dict:
        return {"matrix": [list(row) for row in self.matrix]}

    @classmethod
    def from_json(cls, group: FiniteAbelianGroup, data: dict) -> "GroupAutomorphism":
        return cls(group, tuple(tuple(row) for row in data["matrix"]))


def negation_automorphism(group: FiniteAbelianGroup) -> GroupAutomorphism:
    return scalar_automorphism(group, -1)


def scalar_automorphism(group: FiniteAbelianGroup, k: int) -> GroupAutomorphism:
    r = group.rank
    return GroupAutomorphism(
        group, tuple(tuple(k if i == j else 0 for j in range(r)) for i in range(r))
    )


def in_kernel_of_I_plus(alpha: GroupAutomorphism, coords) -> np.ndarray:
    """Mask of the rows x of an (N, rank) integer array, reduced or not,
    with x + alpha(x) = 0 mod the orders."""
    x = np.asarray(coords, dtype=np.int64).reshape(-1, alpha.group.rank)
    sums = (x + x @ np.array(alpha.matrix, dtype=np.int64).T) % alpha.group.cyclic_orders
    return ~sums.any(axis=1)


def kernel_coords(alpha: GroupAutomorphism) -> np.ndarray:
    """Ker(I + alpha) as an (order of the kernel, rank) array of reduced
    residue vectors, in enumeration order."""
    coords = alpha.group.all_coords()
    return coords[in_kernel_of_I_plus(alpha, coords)]


def kernel_of_I_plus(alpha: GroupAutomorphism) -> list[GroupElement]:
    """Elements g with g + alpha(g) = 0, in enumeration order."""
    return alpha.group.elements_at(kernel_coords(alpha))
