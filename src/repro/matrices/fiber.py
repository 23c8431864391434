"""Sparse fibers: the unit of data Gamma streams and merges.

A fiber is an ordered list of (coordinate, value) pairs — a compressed row or
column of a sparse matrix, or a partial output produced by a PE (paper Fig. 1
and Sec. 2.1). Coordinates are strictly increasing.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.config import ELEMENT_BYTES


class Fiber:
    """An immutable sorted list of (coordinate, value) pairs.

    Args:
        coords: Strictly increasing integer coordinates.
        values: Nonzero values, same length as ``coords``.
        check: Validate sortedness and shapes (disable in hot paths).
    """

    __slots__ = ("coords", "values")

    def __init__(
        self,
        coords: Sequence[int] | np.ndarray,
        values: Sequence[float] | np.ndarray,
        check: bool = True,
    ) -> None:
        self.coords = np.asarray(coords, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if check:
            if self.coords.ndim != 1 or self.values.ndim != 1:
                raise ValueError("coords and values must be 1-D")
            if len(self.coords) != len(self.values):
                raise ValueError(
                    f"length mismatch: {len(self.coords)} coords vs "
                    f"{len(self.values)} values"
                )
            if len(self.coords) > 1 and not np.all(np.diff(self.coords) > 0):
                raise ValueError("coordinates must be strictly increasing")
            if len(self.coords) and self.coords[0] < 0:
                raise ValueError("coordinates must be non-negative")

    @staticmethod
    def empty() -> "Fiber":
        return _EMPTY

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[int, float]]) -> "Fiber":
        """Build a fiber from (coord, value) pairs in any order.

        Duplicate coordinates are summed, and resulting zeros are kept
        (explicit zeros are representable, as in CSR).
        """
        items = sorted(pairs)
        coords: List[int] = []
        values: List[float] = []
        for coord, value in items:
            if coords and coords[-1] == coord:
                values[-1] += value
            else:
                coords.append(coord)
                values.append(value)
        return Fiber(coords, values, check=False)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return zip(self.coords.tolist(), self.values.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fiber):
            return NotImplemented
        return bool(
            len(self) == len(other)
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        preview = ", ".join(
            f"({c}, {v:g})" for c, v in list(self)[:4]
        )
        suffix = ", ..." if len(self) > 4 else ""
        return f"Fiber([{preview}{suffix}], nnz={len(self)})"

    @property
    def nbytes(self) -> int:
        """Footprint in the paper's storage format (12 B per element)."""
        return len(self) * ELEMENT_BYTES

    def scale(self, factor: float) -> "Fiber":
        """Return this fiber with every value multiplied by ``factor``."""
        return Fiber(self.coords, self.values * factor, check=False)

    def drop_zeros(self, tol: float = 0.0) -> "Fiber":
        """Return a fiber without entries whose |value| <= tol."""
        keep = np.abs(self.values) > tol
        if keep.all():
            return self
        return Fiber(self.coords[keep], self.values[keep], check=False)

    def dot(self, other: "Fiber") -> float:
        """Sparse dot product (the inner-product dataflow's intersection).

        Coordinates are strictly increasing, so the intersection comes
        from one ``np.intersect1d`` call with indices; the products are
        then summed left-to-right in coordinate order, bit-identical to
        the classic two-pointer walk this replaces.
        """
        if not len(self.coords) or not len(other.coords):
            return 0.0
        _, ia, ib = np.intersect1d(
            self.coords, other.coords,
            assume_unique=True, return_indices=True,
        )
        if not len(ia):
            return 0.0
        return float(sum((self.values[ia] * other.values[ib]).tolist()))


_EMPTY = Fiber(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64),
               check=False)


def _make_fiber(coords: np.ndarray, values: np.ndarray) -> Fiber:
    """Hot-path Fiber constructor: trusted pre-typed arrays, no checks."""
    fiber = Fiber.__new__(Fiber)
    fiber.coords = coords
    fiber.values = values
    return fiber


def linear_combine(fibers: Sequence[Fiber],
                   scales: Sequence[float],
                   semiring=None) -> Fiber:
    """Linearly combine fibers: the functional job of one Gamma PE pass.

    Computes ``add_i mul(scales[i], fibers[i])`` as a new fiber whose
    coordinates are the union of the inputs' coordinates (Sec. 3:
    C_m = sum_k a_mk * B_k in the arithmetic semiring).

    Args:
        fibers: Input fibers (rows of B or partial output fibers).
        scales: One scaling factor per fiber (a_mk for B rows, the
            semiring's multiplicative identity for partial outputs).
        semiring: Scalar algebra; None selects ordinary (+, x).

    Returns:
        The combined output fiber. Entries that cancel to exactly the
        semiring's zero are kept, matching hardware behaviour (the
        accumulator emits whatever sum it holds when the coordinate
        changes).
    """
    if len(fibers) != len(scales):
        raise ValueError(
            f"{len(fibers)} fibers but {len(scales)} scaling factors"
        )
    if semiring is not None and not semiring.is_arithmetic:
        if (semiring.add_ufunc is not None
                and sum(len(f.coords) for f in fibers)
                >= _SEMIRING_VECTOR_MIN):
            return _combine_semiring_vectorized(fibers, scales, semiring)
        return _combine_semiring(fibers, scales, semiring)
    nonempty = [(f, s) for f, s in zip(fibers, scales) if len(f.coords)]
    if not nonempty:
        return Fiber.empty()
    if len(nonempty) == 1:
        fiber, scale = nonempty[0]
        return fiber.scale(scale)
    total = sum(len(f.coords) for f, _ in nonempty)
    if total <= _DICT_PATH_MAX:
        # Small merges (the common case for sparse rows) are faster with a
        # plain dict accumulator than with numpy set machinery. Skipping
        # the multiply at scale 1.0 (partial fibers) is bit-safe: IEEE
        # 1.0 * x == x for every x.
        accumulator: dict = {}
        get = accumulator.get
        for fiber, scale in nonempty:
            coords = fiber.coords.tolist()
            values = fiber.values.tolist()
            if scale == 1.0:
                for coord, value in zip(coords, values):
                    accumulator[coord] = get(coord, 0.0) + value
            else:
                for coord, value in zip(coords, values):
                    accumulator[coord] = get(coord, 0.0) + scale * value
        merged_coords = sorted(accumulator)
        return _make_fiber(
            np.asarray(merged_coords, dtype=np.int64),
            np.asarray([accumulator[c] for c in merged_coords],
                       dtype=np.float64),
        )
    # Large merges: stable-sort the concatenation, find group boundaries
    # with one comparison pass (cheaper than np.unique's second sort), and
    # reduce each coordinate group with np.bincount-over-inverse — the
    # same per-coordinate left-to-right accumulation order as the dict
    # path and the old np.add.at scatter, so results are bit-identical.
    all_coords = np.concatenate([f.coords for f, _ in nonempty])
    all_values = np.concatenate(
        [f.values if s == 1.0 else f.values * s for f, s in nonempty]
    )
    order = np.argsort(all_coords, kind="stable")
    sorted_coords = all_coords[order]
    sorted_values = all_values[order]
    flags = np.empty(len(sorted_coords), dtype=bool)
    flags[0] = True
    np.not_equal(sorted_coords[1:], sorted_coords[:-1], out=flags[1:])
    inverse = np.cumsum(flags)
    inverse -= 1
    summed = np.bincount(inverse, weights=sorted_values)
    return _make_fiber(sorted_coords[flags], summed)


#: Largest total element count routed to the dict accumulator; tuned
#: against the array kernel on this interpreter
#: (tests/test_kernel_speed.py checks the crossover at 12 and 192).
_DICT_PATH_MAX = 48
#: Smallest total element count routed to the reduceat kernel for
#: non-arithmetic semirings (below it the scalar dict loop wins; same
#: test, same two sizes).
_SEMIRING_VECTOR_MIN = 48


def _combine_semiring(fibers: Sequence[Fiber], scales: Sequence[float],
                      semiring) -> Fiber:
    """Generic linear combination under an arbitrary semiring.

    The scalar oracle: one ``mul`` per element, one ``add`` per duplicate
    coordinate, folded in fiber order. Works for any semiring; the
    vectorized kernel below must match it bit-for-bit whenever
    ``add_ufunc`` is declared.
    """
    accumulator: dict = {}
    add, mul = semiring.add, semiring.mul
    for fiber, scale in zip(fibers, scales):
        for coord, value in zip(fiber.coords.tolist(),
                                fiber.values.tolist()):
            product = mul(scale, value)
            if coord in accumulator:
                accumulator[coord] = add(accumulator[coord], product)
            else:
                accumulator[coord] = product
    coords = sorted(accumulator)
    return Fiber(
        np.asarray(coords, dtype=np.int64),
        np.asarray([accumulator[c] for c in coords], dtype=np.float64),
        check=False,
    )


def _combine_semiring_vectorized(fibers: Sequence[Fiber],
                                 scales: Sequence[float],
                                 semiring) -> Fiber:
    """Array kernel for semirings whose ``add`` is a true ufunc.

    Products come from one ``mul_array`` call per fiber; coordinate
    groups of the stable-sorted concatenation are reduced with a single
    ``add_ufunc.reduceat`` (e.g. ``np.minimum`` for tropical,
    ``np.maximum`` as the any-reduction for boolean 0/1 values).
    Group-internal order equals fiber order, so the fold sequence —
    hence the result, bit-for-bit — matches ``_combine_semiring``.
    """
    mul_array = semiring.mul_array
    coord_parts = []
    value_parts = []
    for fiber, scale in zip(fibers, scales):
        if len(fiber.coords):
            coord_parts.append(fiber.coords)
            value_parts.append(np.asarray(
                mul_array(scale, fiber.values), dtype=np.float64))
    if not coord_parts:
        return Fiber.empty()
    all_coords = np.concatenate(coord_parts)
    all_values = np.concatenate(value_parts)
    order = np.argsort(all_coords, kind="stable")
    sorted_coords = all_coords[order]
    sorted_values = all_values[order]
    flags = np.empty(len(sorted_coords), dtype=bool)
    flags[0] = True
    np.not_equal(sorted_coords[1:], sorted_coords[:-1], out=flags[1:])
    starts = np.flatnonzero(flags)
    reduced = semiring.add_ufunc.reduceat(sorted_values, starts)
    return _make_fiber(sorted_coords[flags],
                       np.asarray(reduced, dtype=np.float64))
