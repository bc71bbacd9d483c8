"""Cubes, truth-table *rows*, and irredundant SOP (ISOP) extraction.

SimGen's implication and decision steps (paper §4–§5) operate on the *rows*
of a node's truth table: compact input patterns that may contain don't-cares
(DCs), together with the output value they produce.  Figure 3 of the paper
shows such a table.  We obtain the rows by computing an irredundant
sum-of-products cover of the onset (rows with output 1) and of the offset
(rows with output 0) using the Minato–Morreale ISOP construction; together
those covers partition-cover every minterm, which is exactly the property
the advanced-implication soundness argument needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from repro.errors import LogicError
from repro.logic.truthtable import MAX_VARS, TruthTable


@dataclass(frozen=True, slots=True)
class Cube:
    """A product term over ``num_vars`` inputs.

    Attributes:
        num_vars: Arity of the underlying function.
        mask: Bit ``i`` set iff input ``i`` is bound (not a don't-care).
        values: Bound inputs' values; must satisfy ``values & ~mask == 0``.
    """

    num_vars: int
    mask: int
    values: int

    def __post_init__(self) -> None:
        limit = (1 << self.num_vars) - 1
        if not 0 <= self.mask <= limit:
            raise LogicError(f"cube mask 0x{self.mask:x} out of range")
        if self.values & ~self.mask:
            raise LogicError("cube values set outside mask")

    @classmethod
    def full_dc(cls, num_vars: int) -> "Cube":
        """The universal cube (every input a don't-care)."""
        return cls(num_vars, 0, 0)

    @classmethod
    def from_literals(cls, literals: Sequence[Optional[int]]) -> "Cube":
        """Build from a per-input list of 0, 1, or ``None`` (don't-care)."""
        mask = 0
        values = 0
        for i, lit in enumerate(literals):
            if lit is None:
                continue
            if lit not in (0, 1):
                raise LogicError(f"literal {lit!r} at input {i} is not 0/1/None")
            mask |= 1 << i
            if lit:
                values |= 1 << i
        return cls(len(literals), mask, values)

    # ------------------------------------------------------------------
    def literal(self, index: int) -> Optional[int]:
        """The literal at input ``index``: 0, 1, or ``None`` for DC."""
        if not 0 <= index < self.num_vars:
            raise LogicError(f"input index {index} out of range")
        if not (self.mask >> index) & 1:
            return None
        return (self.values >> index) & 1

    def literals(self) -> list[Optional[int]]:
        """Per-input literal list (0, 1, or None)."""
        return [self.literal(i) for i in range(self.num_vars)]

    def num_bound(self) -> int:
        """Number of bound (non-DC) inputs."""
        return self.mask.bit_count()

    def num_dc(self) -> int:
        """Number of don't-care inputs (Equation 1's ``dc_size`` numerator)."""
        return self.num_vars - self.num_bound()

    def contains(self, minterm: int) -> bool:
        """True if the input pattern ``minterm`` lies inside this cube."""
        return (minterm & self.mask) == self.values

    def with_literal(self, index: int, value: int) -> "Cube":
        """A copy with input ``index`` additionally bound to ``value``."""
        if value not in (0, 1):
            raise LogicError(f"literal value must be 0/1, got {value!r}")
        bit = 1 << index
        new_values = (self.values & ~bit) | (bit if value else 0)
        return Cube(self.num_vars, self.mask | bit, new_values)

    def to_truthtable(self) -> TruthTable:
        """The characteristic function of the cube."""
        bits = 0
        for m in range(1 << self.num_vars):
            if self.contains(m):
                bits |= 1 << m
        return TruthTable(self.num_vars, bits)

    def compatible_with(
        self, inputs: Sequence[Optional[int]]
    ) -> bool:
        """True if no *assigned* input contradicts a bound literal.

        A don't-care literal is compatible with any assignment, and an
        unassigned input is compatible with any literal — this is the row
        "matching" relation of paper §4.
        """
        if len(inputs) != self.num_vars:
            raise LogicError("assignment arity mismatch")
        for i, value in enumerate(inputs):
            if value is None:
                continue
            lit = self.literal(i)
            if lit is not None and lit != value:
                return False
        return True

    def __str__(self) -> str:
        chars = {None: "-", 0: "0", 1: "1"}
        return "".join(chars[self.literal(i)] for i in range(self.num_vars))


@dataclass(frozen=True, slots=True)
class Row:
    """A truth-table row: an input cube plus the output it produces."""

    cube: Cube
    output: int

    def __post_init__(self) -> None:
        if self.output not in (0, 1):
            raise LogicError(f"row output must be 0/1, got {self.output!r}")

    @property
    def num_vars(self) -> int:
        return self.cube.num_vars

    def literal(self, index: int) -> Optional[int]:
        return self.cube.literal(index)

    def literals(self) -> list[Optional[int]]:
        return self.cube.literals()

    def dc_size(self) -> int:
        """Equation 1: the number of don't-care inputs in the row."""
        return self.cube.num_dc()

    def matches(
        self, inputs: Sequence[Optional[int]], output: Optional[int]
    ) -> bool:
        """Row-matching relation: agree with every assigned pin."""
        if output is not None and output != self.output:
            return False
        return self.cube.compatible_with(inputs)

    def __str__(self) -> str:
        return f"{self.cube} -> {self.output}"


# ----------------------------------------------------------------------
# Minato–Morreale ISOP
# ----------------------------------------------------------------------

#: Per-arity (full minterm mask, per-variable projection masks) — hoisted so
#: the ISOP recursion runs on plain integers with no TruthTable churn.
_ISOP_MASKS = tuple(
    (
        TruthTable.full_mask(n),
        tuple(TruthTable.var(n, i).bits for i in range(n)),
    )
    for n in range(MAX_VARS + 1)
)


def _isop_bits(
    num_vars: int, lower: int, upper: int, full: int, vmasks: tuple[int, ...]
) -> tuple[list[tuple[int, int]], int]:
    """Integer-only core of :func:`_isop`.

    ``lower``/``upper`` are minterm masks; returns the cubes as packed
    ``(mask, values)`` integer pairs plus the minterm mask of their
    characteristic function.  Carrying plain int pairs through the
    recursion (the :class:`Cube` objects are built once at the API
    boundary) keeps the hot cold-start path free of dataclass churn.  The
    recursion mirrors the classic construction exactly (same variable
    order, same cube order) so covers are bit-for-bit reproducible.
    """
    if lower == 0:
        return [], 0
    if upper == full:
        return [(0, 0)], full

    # Pick the highest variable either bound actually depends on.
    var = -1
    for i in reversed(range(num_vars)):
        blk = 1 << i
        half = full & ~vmasks[i]
        if ((lower ^ (lower >> blk)) & half) or (
            (upper ^ (upper >> blk)) & half
        ):
            var = i
            break
    if var < 0:  # pragma: no cover - bounds constant yet not caught above
        raise LogicError("ISOP invariant violated: no support variable")

    blk = 1 << var
    vm = vmasks[var]
    lo = full & ~vm
    l0 = lower & lo
    l0 |= l0 << blk
    l1 = lower & vm
    l1 |= l1 >> blk
    u0 = upper & lo
    u0 |= u0 << blk
    u1 = upper & vm
    u1 |= u1 >> blk

    cubes0, f0 = _isop_bits(num_vars, l0 & ~u1, u0, full, vmasks)
    cubes1, f1 = _isop_bits(num_vars, l1 & ~u0, u1, full, vmasks)
    cubes2, f2 = _isop_bits(
        num_vars, (l0 & ~f0) | (l1 & ~f1), u0 & u1, full, vmasks
    )

    # The sub-recursions never bind ``var``, so binding it here is plain
    # bit arithmetic (the 0-branch leaves values untouched).
    cubes = (
        [(m | blk, v) for m, v in cubes0]
        + [(m | blk, v | blk) for m, v in cubes1]
        + cubes2
    )
    func_bits = (lo & f0) | (vm & f1) | f2
    return cubes, func_bits


def _isop(lower: TruthTable, upper: TruthTable) -> tuple[list[Cube], TruthTable]:
    """Compute an irredundant SOP ``F`` with ``lower <= F <= upper``.

    Returns the cube list and its characteristic function.
    """
    num_vars = lower.num_vars
    full, vmasks = _ISOP_MASKS[num_vars]
    pairs, func_bits = _isop_bits(num_vars, lower.bits, upper.bits, full, vmasks)
    cubes = [Cube(num_vars, m, v) for m, v in pairs]
    return cubes, TruthTable(num_vars, func_bits)


def isop(table: TruthTable) -> list[Cube]:
    """An irredundant SOP cover of ``table``'s onset."""
    num_vars = table.num_vars
    full, vmasks = _ISOP_MASKS[num_vars]
    pairs, func_bits = _isop_bits(num_vars, table.bits, table.bits, full, vmasks)
    if func_bits != table.bits:  # pragma: no cover - algorithmic safety net
        raise LogicError("ISOP result does not equal the input function")
    return [Cube(num_vars, m, v) for m, v in pairs]


@lru_cache(maxsize=16384)
def isop_cover(table: TruthTable) -> tuple[Cube, ...]:
    """Cached, immutable :func:`isop` — LUT networks reuse few functions,
    so repeated lowerings hit this instead of re-deriving the cover.  The
    one source of covers for the rows (:func:`rows_of`) and the reference
    simulator's evaluation plans."""
    return tuple(isop(table))


@lru_cache(maxsize=16384)
def rows_of(table: TruthTable) -> tuple[Row, ...]:
    """All rows of ``table``: ISOP of the onset plus ISOP of the offset.

    Every minterm of the input space is contained in at least one row, and
    every row produces the function's value on all its minterms.  Rows are
    cached per function since LUT networks reuse few distinct functions;
    the covers come from :func:`isop_cover`, which the reference
    simulator's plans share, so each runs ISOP once.
    """
    onset = tuple(Row(c, 1) for c in isop_cover(table))
    offset = tuple(Row(c, 0) for c in isop_cover(~table))
    return onset + offset


@lru_cache(maxsize=16384)
def packed_rows(table: TruthTable) -> tuple[tuple[int, int, int], ...]:
    """Rows of ``table`` as ``(mask, values, output)`` integer triples.

    The packed form supports O(1) matching against a partial pin assignment
    expressed as ``(known_mask, known_values)``: a row matches iff
    ``(values ^ known_values) & (mask & known_mask) == 0`` and the output
    agrees — the hot path of the implication engine.  It is also the one
    packed form of a gate function the C cores read (the rows section of
    :meth:`Lowering.rows <repro.network.lowering.Lowering.rows>`), and
    each row is one Tseitin clause.
    """
    return tuple(
        (row.cube.mask, row.cube.values, row.output) for row in rows_of(table)
    )


def matching_rows(
    table: TruthTable,
    inputs: Sequence[Optional[int]],
    output: Optional[int],
) -> list[Row]:
    """The rows of ``table`` compatible with a partial pin assignment."""
    return [row for row in rows_of(table) if row.matches(inputs, output)]


def iter_minterms(cube: Cube) -> Iterator[int]:
    """Iterate the minterms contained in a cube (exponential in DC count)."""
    free = [i for i in range(cube.num_vars) if not (cube.mask >> i) & 1]
    for combo in range(1 << len(free)):
        m = cube.values
        for j, i in enumerate(free):
            if (combo >> j) & 1:
                m |= 1 << i
        yield m
