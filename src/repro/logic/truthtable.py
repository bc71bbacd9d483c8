"""Truth tables over a small number of variables.

A :class:`TruthTable` stores the function of one node as a bitmask over its
``2**num_vars`` minterms: bit ``m`` of :attr:`bits` is the output of the
function for the input assignment whose variable ``i`` equals bit ``i`` of
``m`` (variable 0 is the least-significant input).

Tables are the ground truth for everything in SimGen: simulation evaluates
them, cube extraction (``repro.logic.cubes``) turns them into the rows that
implication and decision reason about, and the Tseitin encoder turns them
into CNF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from repro.errors import LogicError

#: The largest supported variable count.  2**16 minterm masks are still
#: cheap Python ints; practical LUTs in this project use K <= 6.
MAX_VARS = 16


def _check_num_vars(num_vars: int) -> None:
    if not 0 <= num_vars <= MAX_VARS:
        raise LogicError(f"num_vars must be in [0, {MAX_VARS}], got {num_vars}")


#: full_mask(n) for every legal arity, precomputed (hot in cofactor/ISOP).
_FULL_MASKS = tuple((1 << (1 << n)) - 1 for n in range(MAX_VARS + 1))


@lru_cache(maxsize=None)
def var_mask(num_vars: int, index: int) -> int:
    """Minterm mask of the projection function of input ``index``.

    Bit ``m`` is set iff bit ``index`` of the minterm ``m`` is set — the
    constant that turns cofactoring into two shifts (see :meth:`cofactor`).
    Built in closed form: a block of ``2**index`` zeros then ``2**index``
    ones, doubled until it spans all ``2**num_vars`` minterms.
    """
    half = 1 << index
    bits = ((1 << half) - 1) << half
    width = half << 1
    while width < 1 << num_vars:
        bits |= bits << width
        width <<= 1
    return bits


def compose_bits(
    bits: int, num_vars: int, fanin_bits: Sequence[int], full: int
) -> int:
    """Minterm mask of ``bits`` (a function of ``num_vars`` inputs) with
    input ``i`` replaced by the function whose mask is ``fanin_bits[i]``.

    Word-parallel: each onset minterm of the outer function contributes
    the AND of every fanin mask, or of its complement within ``full``
    where the minterm's bit is 0, and the terms are ORed.  When the offset
    is smaller, it is composed instead and the result complemented.
    """
    ones = bits.bit_count()
    complement = ones > (1 << num_vars) - ones
    if complement:
        bits ^= _FULL_MASKS[num_vars]
    pairs = [(f, full ^ f) for f in fanin_bits]
    result = 0
    while bits:
        low = bits & -bits
        bits ^= low
        m = low.bit_length() - 1
        term = full
        for pos, neg in pairs:
            term &= pos if m & 1 else neg
            m >>= 1
        result |= term
    return full ^ result if complement else result


@dataclass(frozen=True, slots=True)
class TruthTable:
    """An immutable Boolean function of ``num_vars`` inputs.

    Attributes:
        num_vars: The number of input variables.
        bits: Minterm bitmask; bit ``m`` is the output for input pattern ``m``.
    """

    num_vars: int
    bits: int
    #: ``hash((num_vars, bits))``, computed once: tables key the lowering
    #: caches and dedup dicts, which probe them tens of thousands of times
    #: per pass.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_num_vars(self.num_vars)
        full = self.full_mask(self.num_vars)
        if not 0 <= self.bits <= full:
            raise LogicError(
                f"bits 0x{self.bits:x} out of range for {self.num_vars} vars"
            )
        object.__setattr__(self, "_hash", hash((self.num_vars, self.bits)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle the two fields only; unpickling re-runs the checks and
        # recomputes the hash.
        return (type(self), (self.num_vars, self.bits))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def full_mask(num_vars: int) -> int:
        """The bitmask with every minterm of ``num_vars`` variables set."""
        _check_num_vars(num_vars)
        return _FULL_MASKS[num_vars]

    @classmethod
    def const(cls, num_vars: int, value: bool) -> "TruthTable":
        """A constant-``value`` function of ``num_vars`` inputs."""
        return cls(num_vars, cls.full_mask(num_vars) if value else 0)

    @classmethod
    def var(cls, num_vars: int, index: int) -> "TruthTable":
        """The projection function returning input ``index`` unchanged."""
        _check_num_vars(num_vars)
        if not 0 <= index < num_vars:
            raise LogicError(f"variable index {index} out of range ({num_vars} vars)")
        return cls(num_vars, var_mask(num_vars, index))

    @classmethod
    def from_minterms(cls, num_vars: int, minterms: Iterable[int]) -> "TruthTable":
        """Build a table from the set of input patterns mapped to 1."""
        _check_num_vars(num_vars)
        bits = 0
        size = 1 << num_vars
        for m in minterms:
            if not 0 <= m < size:
                raise LogicError(f"minterm {m} out of range for {num_vars} vars")
            bits |= 1 << m
        return cls(num_vars, bits)

    @classmethod
    def from_outputs(cls, outputs: Sequence[int | bool]) -> "TruthTable":
        """Build a table from the full output column (length must be 2**k)."""
        size = len(outputs)
        num_vars = size.bit_length() - 1
        if size == 0 or (1 << num_vars) != size:
            raise LogicError(f"output column length {size} is not a power of two")
        bits = 0
        for m, value in enumerate(outputs):
            if value not in (0, 1, False, True):
                raise LogicError(f"output value {value!r} is not Boolean")
            if value:
                bits |= 1 << m
        return cls(num_vars, bits)

    @classmethod
    def from_hex(cls, num_vars: int, text: str) -> "TruthTable":
        """Parse an ABC-style hexadecimal truth-table string."""
        try:
            bits = int(text, 16)
        except ValueError as exc:
            raise LogicError(f"invalid hex truth table {text!r}") from exc
        return cls(num_vars, bits)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of minterms (2**num_vars)."""
        return 1 << self.num_vars

    def evaluate(self, assignment: Sequence[int | bool]) -> int:
        """Evaluate on a full input assignment; returns 0 or 1."""
        if len(assignment) != self.num_vars:
            raise LogicError(
                f"assignment has {len(assignment)} values, table has "
                f"{self.num_vars} vars"
            )
        minterm = 0
        for i, value in enumerate(assignment):
            if value:
                minterm |= 1 << i
        return (self.bits >> minterm) & 1

    def output_for(self, minterm: int) -> int:
        """The output bit for the input pattern ``minterm``."""
        if not 0 <= minterm < self.size:
            raise LogicError(f"minterm {minterm} out of range")
        return (self.bits >> minterm) & 1

    def minterms(self) -> Iterator[int]:
        """Iterate over input patterns mapped to 1."""
        bits = self.bits
        m = 0
        while bits:
            if bits & 1:
                yield m
            bits >>= 1
            m += 1

    def count_ones(self) -> int:
        """Number of onset minterms."""
        return self.bits.bit_count()

    def is_const(self) -> bool:
        """True if the function is constant 0 or constant 1."""
        return self.bits == 0 or self.bits == self.full_mask(self.num_vars)

    def const_value(self) -> int | None:
        """0/1 if the function is constant, else ``None``."""
        if self.bits == 0:
            return 0
        if self.bits == self.full_mask(self.num_vars):
            return 1
        return None

    def depends_on(self, index: int) -> bool:
        """True if the function actually depends on input ``index``."""
        if not 0 <= index < self.num_vars:
            raise LogicError(f"variable index {index} out of range")
        # Compare the two cofactors without materializing them: for every
        # minterm m with bit ``index`` clear, bits[m] vs bits[m + 2**index].
        blk = 1 << index
        lower = _FULL_MASKS[self.num_vars] & ~var_mask(self.num_vars, index)
        return bool((self.bits ^ (self.bits >> blk)) & lower)

    def support(self) -> list[int]:
        """Indices of the inputs the function truly depends on."""
        return [i for i in range(self.num_vars) if self.depends_on(i)]

    def shrink_to_support(self) -> tuple["TruthTable", list[int]]:
        """Drop don't-care inputs; returns (table, kept input positions).

        New input ``j`` is old input ``support[j]``; a function with no
        support becomes a 0-input constant.
        """
        support = self.support()
        if len(support) == self.num_vars:
            return self, support
        if not support:
            return TruthTable(0, self.bits & 1), []
        bits = 0
        for m in range(1 << len(support)):
            src = 0
            for j, var in enumerate(support):
                if (m >> j) & 1:
                    src |= 1 << var
            if (self.bits >> src) & 1:
                bits |= 1 << m
        return TruthTable(len(support), bits), support

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _binary(self, other: "TruthTable", op: str) -> "TruthTable":
        if self.num_vars != other.num_vars:
            raise LogicError(
                f"arity mismatch: {self.num_vars} vs {other.num_vars} vars"
            )
        if op == "and":
            bits = self.bits & other.bits
        elif op == "or":
            bits = self.bits | other.bits
        elif op == "xor":
            bits = self.bits ^ other.bits
        else:  # pragma: no cover - internal misuse
            raise LogicError(f"unknown op {op}")
        return TruthTable(self.num_vars, bits)

    def __and__(self, other: "TruthTable") -> "TruthTable":
        return self._binary(other, "and")

    def __or__(self, other: "TruthTable") -> "TruthTable":
        return self._binary(other, "or")

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        return self._binary(other, "xor")

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.num_vars, self.bits ^ self.full_mask(self.num_vars))

    def cofactor(self, index: int, value: int) -> "TruthTable":
        """Shannon cofactor with input ``index`` fixed to ``value``.

        The result keeps the same arity; the cofactored variable becomes a
        don't-care input (the table no longer depends on it).
        """
        if not 0 <= index < self.num_vars:
            raise LogicError(f"variable index {index} out of range")
        if value not in (0, 1):
            raise LogicError(f"cofactor value must be 0/1, got {value!r}")
        return _cofactor_cached(self, index, value)

    def compose(self, fanin_tables: Sequence["TruthTable"]) -> "TruthTable":
        """Substitute ``fanin_tables[i]`` for input ``i``.

        All fanin tables must share one arity ``n``; the result is a function
        of those ``n`` base variables.  Used by LUT mapping to compute cut
        functions.
        """
        if len(fanin_tables) != self.num_vars:
            raise LogicError(
                f"compose needs {self.num_vars} fanin tables, got "
                f"{len(fanin_tables)}"
            )
        if self.num_vars == 0:
            return self
        base = fanin_tables[0].num_vars
        for table in fanin_tables:
            if table.num_vars != base:
                raise LogicError("compose fanin tables must share arity")
        return TruthTable(
            base,
            compose_bits(
                self.bits,
                self.num_vars,
                [table.bits for table in fanin_tables],
                _FULL_MASKS[base],
            ),
        )

    def permute(self, order: Sequence[int]) -> "TruthTable":
        """Reorder inputs: new input ``i`` is old input ``order[i]``."""
        if sorted(order) != list(range(self.num_vars)):
            raise LogicError(f"order {order!r} is not a permutation")
        bits = 0
        for m in range(self.size):
            src = 0
            for new_i, old_i in enumerate(order):
                if (m >> new_i) & 1:
                    src |= 1 << old_i
            if (self.bits >> src) & 1:
                bits |= 1 << m
        return TruthTable(self.num_vars, bits)

    def expand(self, num_vars: int, positions: Sequence[int]) -> "TruthTable":
        """Embed into a wider arity: old input ``i`` becomes ``positions[i]``."""
        _check_num_vars(num_vars)
        if len(positions) != self.num_vars:
            raise LogicError("positions length must match arity")
        if len(set(positions)) != len(positions):
            raise LogicError("positions must be distinct")
        for p in positions:
            if not 0 <= p < num_vars:
                raise LogicError(f"position {p} out of range for {num_vars} vars")
        bits = 0
        for m in range(1 << num_vars):
            local = 0
            for i, p in enumerate(positions):
                if (m >> p) & 1:
                    local |= 1 << i
            if (self.bits >> local) & 1:
                bits |= 1 << m
        return TruthTable(num_vars, bits)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_hex(self) -> str:
        """ABC-style zero-padded hexadecimal string."""
        digits = max(1, (self.size + 3) // 4)
        return f"{self.bits:0{digits}x}"

    def __str__(self) -> str:
        return f"TT<{self.num_vars}>:{self.to_hex()}"


@lru_cache(maxsize=1 << 17)
def _cofactor_cached(table: TruthTable, index: int, value: int) -> TruthTable:
    """Shannon cofactor as two mask/shift operations, memoized.

    Replicate the upper (``value=1``) or lower (``value=0``) half of every
    ``2**index``-wide block over its sibling half.  Cofactoring is the inner
    loop of ISOP extraction and the implication engine, and LUT networks
    reuse few distinct functions, so the cache hit rate is very high.
    """
    blk = 1 << index
    upper = var_mask(table.num_vars, index)
    if value:
        kept = table.bits & upper
        bits = kept | (kept >> blk)
    else:
        kept = table.bits & (_FULL_MASKS[table.num_vars] & ~upper)
        bits = kept | (kept << blk)
    return TruthTable(table.num_vars, bits)
