"""Netlist resolution without recursion: deep netlists parse, and the
iterative resolver creates the same nodes, in the same order, with the
same errors, as the recursive one it replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.io import (
    bench,
    bench_text,
    blif,
    blif_text,
    parse_bench,
    parse_blif,
)
from repro.logic.truthtable import TruthTable
from repro.network import Network

FORMATS = {
    "bench": (bench, parse_bench, bench_text),
    "blif": (blif, parse_blif, blif_text),
}


def recursive_resolve_signal(name, ref_line, node_of, definitions, build):
    """The recursive resolver both readers used before: the oracle."""
    resolving = set()

    def resolve(signal, line):
        if signal in node_of:
            return node_of[signal]
        if signal not in definitions:
            raise ParseError(f"undefined signal {signal!r}", line)
        if signal in resolving:
            raise ParseError(
                f"combinational cycle through {signal!r}",
                definitions[signal][0],
            )
        resolving.add(signal)
        number, fanin_names, _ = definitions[signal]
        fanins = [resolve(fanin, number) for fanin in fanin_names]
        node_of[signal] = build(signal, fanins)
        resolving.discard(signal)
        return node_of[signal]

    return resolve(name, ref_line)


def outcome(parse, text):
    """The parsed network's bench text, or the error and its line."""
    try:
        network = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", bench_text(network))


def inverter_chain(depth):
    net = Network("chain")
    signal = net.add_pi("a")
    for _ in range(depth):
        signal = net.add_gate(TruthTable(1, 0b01), (signal,))
    net.add_po(signal, "f")
    return net


class TestDeepChains:
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_chain_of_5000_parses(self, fmt):
        _, parse, write = FORMATS[fmt]
        text = write(inverter_chain(5000))
        network = parse(text)
        assert network.num_gates == 5000
        assert write(network) == text

    def test_deep_cycle_is_a_parse_error(self):
        lines = ["INPUT(a)", "OUTPUT(g0)", "g0 = NOT(g1)"]
        lines += [f"g{i} = NOT(g{i + 1})" for i in range(1, 5000)]
        lines.append("g5000 = AND(a, g0)")
        with pytest.raises(ParseError, match="cycle through 'g0'"):
            parse_bench("\n".join(lines))

    def test_deep_undefined_signal_is_a_parse_error(self):
        lines = [".model m", ".inputs a", ".outputs g0"]
        for i in range(5000):
            lines += [f".names g{i + 1} g{i}", "0 1"]
        with pytest.raises(ParseError, match="undefined signal 'g5000'"):
            parse_blif("\n".join(lines))


@st.composite
def netlists(draw):
    """A small netlist that may have cycles, undefined signals and
    duplicate definitions, as (inputs, gates, outputs)."""
    num_inputs = draw(st.integers(1, 3))
    num_gates = draw(st.integers(1, 8))
    inputs = [f"i{i}" for i in range(num_inputs)]
    everything = inputs + [f"g{i}" for i in range(num_gates)] + ["undefined"]
    gates = []
    for index in range(draw(st.integers(num_gates, num_gates + 2))):
        out = f"g{index % num_gates}"
        # Mostly earlier signals, so many netlists are well formed.
        earlier = inputs + [f"g{i}" for i in range(min(index, num_gates))]
        pool = earlier if draw(st.integers(0, 3)) else everything
        arity = draw(st.integers(1, 3))
        fanins = [draw(st.sampled_from(pool)) for _ in range(arity)]
        kind = draw(st.sampled_from(["AND", "OR", "XOR", "NAND", "NOT"]))
        if kind == "NOT":
            fanins = fanins[:1]
        cover = "".join(draw(st.sampled_from("01-")) for _ in fanins)
        gates.append((out, kind, fanins, cover))
    signals = st.sampled_from(everything[num_inputs:])
    outputs = draw(st.lists(signals, min_size=1, max_size=3))
    if draw(st.booleans()):
        gates.reverse()
    return inputs, gates, outputs


def bench_of(inputs, gates, outputs):
    lines = [f"INPUT({name})" for name in inputs]
    lines += [f"OUTPUT({name})" for name in outputs]
    for out, kind, fanins, _ in gates:
        lines.append(f"{out} = {kind}({', '.join(fanins)})")
    return "\n".join(lines) + "\n"


def blif_of(inputs, gates, outputs):
    lines = [
        ".model m",
        f".inputs {' '.join(inputs)}",
        f".outputs {' '.join(outputs)}",
    ]
    for out, _, fanins, cover in gates:
        lines += [f".names {' '.join(fanins)} {out}", f"{cover} 1"]
    return "\n".join(lines + [".end"]) + "\n"


class TestAgainstRecursiveResolver:
    @settings(max_examples=300, deadline=None)
    @given(netlists(), st.sampled_from(sorted(FORMATS)))
    def test_same_network_and_same_errors(self, netlist, fmt):
        module, parse, _ = FORMATS[fmt]
        text = (bench_of if fmt == "bench" else blif_of)(*netlist)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "resolve_signal", recursive_resolve_signal)
            expected = outcome(parse, text)
        assert outcome(parse, text) == expected
