"""Signal resolution shared by the netlist readers.

A reader collects every definition first and then creates the nodes a
primary output depends on, in dependency order.  The walk keeps its own
stack, so a netlist as deep as a chain of thousands of gates resolves
without touching the interpreter's recursion limit.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ParseError

#: Signal name -> (defining line, fanin names, reader-specific payload).
Definitions = dict[str, tuple[int, Sequence[str], object]]


def resolve_signal(
    name: str,
    ref_line: int,
    node_of: dict[str, int],
    definitions: Definitions,
    build: Callable[[str, list[int]], int],
) -> int:
    """The node of signal ``name``; creates it, and first every signal it
    depends on, through ``build(signal, fanin uids)``.

    Nodes are created in post-order, fanins left to right, and recorded in
    ``node_of``.  An undefined signal fails with the line that references
    it, a cycle with the line that defines the signal it closes on.
    """

    def enter(signal: str, referenced_at: int) -> None:
        if signal in node_of:
            return
        if signal not in definitions:
            raise ParseError(f"undefined signal {signal!r}", referenced_at)
        line, fanins, _ = definitions[signal]
        if signal in resolving:
            raise ParseError(f"combinational cycle through {signal!r}", line)
        resolving.add(signal)
        stack.append((signal, line, fanins, iter(fanins)))

    resolving: set[str] = set()
    stack: list = []
    enter(name, ref_line)
    while stack:
        signal, line, fanins, pending = stack[-1]
        fanin = next(pending, None)
        if fanin is not None:
            enter(fanin, line)
            continue
        stack.pop()
        node_of[signal] = build(signal, [node_of[f] for f in fanins])
        resolving.discard(signal)
    return node_of[name]
