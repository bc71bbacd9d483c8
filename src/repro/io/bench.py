"""ISCAS .bench reader/writer.

The .bench format of the ISCAS'85/'89 suites (also emitted by ABC's
``write_bench``): ``INPUT(x)``, ``OUTPUT(y)``, and gate lines like
``y = NAND(a, b)``.  Supported gates: AND, OR, NAND, NOR, XOR, XNOR, NOT,
BUF/BUFF, plus the LUT form ``y = LUT 0x8 (a, b)`` that ABC writes for
mapped networks.
"""

from __future__ import annotations

import re
from typing import TextIO

from repro.errors import LogicError, NetworkError, ParseError
from repro.io._names import gate_names
from repro.io._resolve import Definitions, resolve_signal
from repro.logic import gates
from repro.logic.truthtable import TruthTable
from repro.network.network import Network

_GATE_RE = re.compile(
    r"^(?P<out>[^=\s]+)\s*=\s*(?P<kind>[A-Za-z]+)\s*"
    r"(?:(?P<hex>0x[0-9a-fA-F]+)\s*)?\((?P<args>[^)]*)\)$"
)
_IO_RE = re.compile(r"^(INPUT|OUTPUT)\((?P<name>[^)]+)\)$")

_KINDS = {
    "AND": "and",
    "OR": "or",
    "NAND": "nand",
    "NOR": "nor",
    "XOR": "xor",
    "XNOR": "xnor",
    "NOT": "inv",
    "INV": "inv",
    "BUF": "buf",
    "BUFF": "buf",
}


def parse_bench(text: str) -> Network:
    """Parse .bench text into a network.

    Every malformed input fails with :class:`ParseError` carrying the line
    number of the offending (or referencing) line — lower-level
    ``LogicError``/``NetworkError`` never escape.
    """
    inputs: list[tuple[str, int]] = []
    outputs: list[tuple[str, int]] = []
    #: Gate output -> (line, fanin names, (kind, hex table or None)).
    defs: Definitions = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            name = io_match.group("name").strip()
            if line.startswith("INPUT"):
                inputs.append((name, number))
            else:
                outputs.append((name, number))
            continue
        gate_match = _GATE_RE.match(line)
        if not gate_match:
            raise ParseError(f"unparsable line {line!r}", number)
        out = gate_match.group("out")
        kind = gate_match.group("kind").upper()
        args = [
            a.strip() for a in gate_match.group("args").split(",") if a.strip()
        ]
        defs[out] = (number, args, (kind, gate_match.group("hex")))

    network = Network("bench")
    node_of: dict[str, int] = {}
    for name, number in inputs:
        if name in defs:
            raise ParseError(f"signal {name!r} is both INPUT and gate", number)
        if name not in node_of:
            node_of[name] = network.add_pi(name)

    def build(name: str, fanins: list[int]) -> int:
        number, _, (kind, hex_tt) = defs[name]
        try:
            if kind == "LUT":
                if hex_tt is None:
                    raise ParseError("LUT gate without a truth table", number)
                table = TruthTable.from_hex(len(fanins), hex_tt[2:])
            elif kind in ("VDD", "GND", "CONST0", "CONST1"):
                value = kind in ("VDD", "CONST1")
                table = TruthTable.const(0, value)
            elif kind in _KINDS:
                table = gates.gate(_KINDS[kind], max(1, len(fanins)))
            else:
                raise ParseError(f"unknown gate kind {kind!r}", number)
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


def read_bench(path) -> Network:
    """Read a .bench file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_bench(handle.read())


def write_bench(network: Network, handle: TextIO) -> None:
    """Write a network in .bench LUT form."""
    names = gate_names(network)

    def ref(uid: int) -> str:
        node = network.node(uid)
        return node.label() if node.is_pi else names[uid]

    for pi in network.pis:
        handle.write(f"INPUT({network.node(pi).label()})\n")
    for po_name, _ in network.pos:
        handle.write(f"OUTPUT({po_name})\n")
    for node in network.gates():
        args = ", ".join(ref(f) for f in node.fanins)
        handle.write(
            f"{names[node.uid]} = LUT 0x{node.table.to_hex()} ({args})\n"
        )
    for po_name, uid in network.pos:
        if ref(uid) != po_name:
            handle.write(f"{po_name} = BUF({ref(uid)})\n")


def bench_text(network: Network) -> str:
    """The .bench serialization as a string."""
    import io

    buffer = io.StringIO()
    write_bench(network, buffer)
    return buffer.getvalue()
