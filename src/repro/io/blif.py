"""BLIF reader/writer (the interchange format of SIS/ABC/VTR flows).

Supports the combinational subset: ``.model``, ``.inputs``, ``.outputs``,
``.names`` with PLA-style single-output covers, and constants (``.names y``
with an empty or ``1``-only cover).  Covers may use both on-set (``1``) and
off-set (``0``) output polarity.
"""

from __future__ import annotations

from typing import Optional, TextIO

from repro.errors import LogicError, NetworkError, ParseError
from repro.io._names import gate_names
from repro.io._resolve import Definitions, resolve_signal
from repro.logic.cubes import Cube, isop
from repro.logic.truthtable import TruthTable
from repro.network.network import Network


def _join_continuations(text: str) -> list[tuple[int, str]]:
    """Logical lines with their starting line numbers ('\\' continuation)."""
    lines: list[tuple[int, str]] = []
    pending = ""
    pending_start = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not pending:
            pending_start = number
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        pending += line
        if pending.strip():
            lines.append((pending_start, pending.strip()))
        pending = ""
    if pending.strip():
        lines.append((pending_start, pending.strip()))
    return lines


def _cover_to_table(
    rows: list[tuple[str, str]], num_vars: int, line: int
) -> TruthTable:
    """Build the function from PLA cover rows (inputs pattern, output bit)."""
    if not rows:
        return TruthTable.const(num_vars, False)
    polarities = {out for _, out in rows}
    if len(polarities) > 1:
        raise ParseError("mixed output polarities in one cover", line)
    polarity = polarities.pop()
    if polarity not in ("0", "1"):
        raise ParseError(f"bad cover output {polarity!r}", line)
    accum = TruthTable.const(num_vars, False)
    for pattern, _ in rows:
        if len(pattern) != num_vars:
            raise ParseError(
                f"cover row {pattern!r} does not match {num_vars} inputs", line
            )
        literals: list[Optional[int]] = []
        for ch in pattern:
            if ch == "-":
                literals.append(None)
            elif ch in "01":
                literals.append(int(ch))
            else:
                raise ParseError(f"bad cover character {ch!r}", line)
        accum = accum | Cube.from_literals(literals).to_truthtable()
    return accum if polarity == "1" else ~accum


def parse_blif(text: str) -> Network:
    """Parse BLIF text into a network.

    Every malformed input fails with :class:`ParseError` carrying the line
    number of the offending (or referencing) line — lower-level
    ``LogicError``/``NetworkError`` never escape.
    """
    lines = _join_continuations(text)
    model_name = "blif"
    inputs: list[tuple[str, int]] = []
    outputs: list[tuple[str, int]] = []
    names_blocks: list[tuple[int, list[str], list[tuple[str, str]]]] = []
    current: Optional[tuple[int, list[str], list[tuple[str, str]]]] = None

    for number, line in lines:
        if line.startswith("."):
            current = None
            tokens = line.split()
            directive = tokens[0]
            if directive == ".model":
                model_name = tokens[1] if len(tokens) > 1 else "blif"
            elif directive == ".inputs":
                inputs.extend((name, number) for name in tokens[1:])
            elif directive == ".outputs":
                outputs.extend((name, number) for name in tokens[1:])
            elif directive == ".names":
                if len(tokens) < 2:
                    raise ParseError(".names needs at least an output", number)
                current = (number, tokens[1:], [])
                names_blocks.append(current)
            elif directive == ".end":
                break
            elif directive in (".latch", ".subckt"):
                raise ParseError(f"unsupported directive {directive}", number)
            # Silently ignore other dot-directives (.default_input_arrival...)
        else:
            if current is None:
                raise ParseError(f"unexpected line {line!r}", number)
            tokens = line.split()
            if len(current[1]) == 1:
                # Constant node: cover rows are just the output bit.
                if len(tokens) != 1 or tokens[0] not in ("0", "1"):
                    raise ParseError(f"bad constant cover {line!r}", number)
                current[2].append(("", tokens[0]))
            else:
                if len(tokens) != 2:
                    raise ParseError(f"bad cover row {line!r}", number)
                current[2].append((tokens[0], tokens[1]))

    network = Network(model_name)
    node_of: dict[str, int] = {}
    for name, number in inputs:
        if name not in node_of:
            try:
                node_of[name] = network.add_pi(name)
            except (LogicError, NetworkError) as exc:
                raise ParseError(str(exc), number) from exc

    #: .names output -> (line, fanin names, cover rows).
    defs: Definitions = {
        signals[-1]: (number, signals[:-1], rows)
        for number, signals, rows in names_blocks
    }

    def build(name: str, fanins: list[int]) -> int:
        number, _, rows = defs[name]
        try:
            table = _cover_to_table(rows, len(fanins), number)
            return network.add_gate(table, fanins, name)
        except (LogicError, NetworkError) as exc:
            raise ParseError(str(exc), number) from exc

    for name, number in outputs:
        try:
            uid = resolve_signal(name, number, node_of, defs, build)
            network.add_po(uid, name)
        except (LogicError, NetworkError) as exc:
            raise ParseError(str(exc), number) from exc
    return network


def read_blif(path) -> Network:
    """Read a BLIF file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_blif(handle.read())


def write_blif(network: Network, handle: TextIO) -> None:
    """Write a network as BLIF (one ``.names`` cover per gate)."""
    handle.write(f".model {network.name}\n")
    pi_names = [network.node(pi).label() for pi in network.pis]
    handle.write(".inputs " + " ".join(pi_names) + "\n")
    po_labels = [name for name, _ in network.pos]
    handle.write(".outputs " + " ".join(po_labels) + "\n")

    names = gate_names(network)

    def signal(uid: int) -> str:
        return names[uid]

    def ref(uid: int) -> str:
        node = network.node(uid)
        return node.label() if node.is_pi else signal(uid)

    for node in network.gates():
        handle.write(
            ".names "
            + " ".join(ref(f) for f in node.fanins)
            + (" " if node.fanins else "")
            + signal(node.uid)
            + "\n"
        )
        if node.is_const:
            if node.table.bits:
                handle.write("1\n")
            continue
        for cube in isop(node.table):
            pattern = "".join(
                "-" if lit is None else str(lit) for lit in cube.literals()
            )
            handle.write(f"{pattern} 1\n")
    for po_name, uid in network.pos:
        if ref(uid) != po_name:
            handle.write(f".names {ref(uid)} {po_name}\n1 1\n")
    handle.write(".end\n")


def blif_text(network: Network) -> str:
    """The BLIF serialization as a string."""
    import io

    buffer = io.StringIO()
    write_blif(network, buffer)
    return buffer.getvalue()
