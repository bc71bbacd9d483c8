"""Shared fixtures: small reference circuits, including the paper's figures."""

from __future__ import annotations

import importlib
import random

import pytest

from repro.logic import TruthTable, gate
from repro.network import NetworkBuilder
from repro.simulation import PatternBatch, Simulator


@pytest.fixture
def node_signature_calls(monkeypatch) -> list:
    """Every ``node_signatures`` call of the test, wherever the function
    was imported: the networks it hashed, in order."""
    from repro.runtime import journal

    # ``repro.transforms.strash`` is also the name of a function there.
    strash = importlib.import_module("repro.transforms.strash")
    calls = []
    original = strash.node_signatures

    def counted(network):
        calls.append(network)
        return original(network)

    for module in (strash, journal):
        monkeypatch.setattr(module, "node_signatures", counted)
    return calls


@pytest.fixture
def and_or_network():
    """out = (a & b) | c — the smallest interesting multi-level circuit."""
    builder = NetworkBuilder("and_or")
    a, b, c = builder.pis(3)
    inner = builder.and_(a, b, "inner")
    out = builder.or_(inner, c, "out")
    builder.po(out, "f")
    return builder.build(), {"a": a, "b": b, "c": c, "inner": inner, "out": out}


@pytest.fixture
def fig1_network():
    """The circuit of the paper's Figure 1.

    PIs A, B, C.  Gate x = AND(A, inv0(B))?  Reading the figure: gate z is
    an AND whose output D must become 1; x is an AND of A and B with B
    inverted on one path; y is a NAND of (inverter of B) and C.  We encode
    the essential structure: z = AND(x, y), x = AND(A, NOT B),
    y = NAND(NOT B, C) — so B = 0 forces the inverter output 1, which under
    y = 1 forces C = 0, the implication chain the figure walks through.
    """
    builder = NetworkBuilder("fig1")
    a = builder.pi("A")
    b = builder.pi("B")
    c = builder.pi("C")
    inv_b = builder.not_(b, "inv_b")
    x = builder.and_(a, inv_b, "x")
    y = builder.nand_(inv_b, c, "y")
    z = builder.and_(x, y, "z")
    builder.po(z, "D")
    return builder.build(), {
        "A": a, "B": b, "C": c, "inv_b": inv_b, "x": x, "y": y, "z": z
    }


@pytest.fixture
def fig4_network():
    """The circuit of the paper's Figure 4 (MFFC heuristic example).

    z and t are AND gates driving POs D and E; gate y feeds both (it is in
    neither MFFC), while x (and its cone m, n) feeds only z.
    """
    builder = NetworkBuilder("fig4")
    p = builder.pis(6)
    m = builder.and_(p[0], p[1], "m")
    n = builder.or_(m, p[2], "n")
    x = builder.and_(n, p[3], "x")
    y = builder.not_(p[4], "y")
    z = builder.and_(x, y, "z")
    t = builder.and_(y, p[5], "t")
    builder.po(z, "D")
    builder.po(t, "E")
    return builder.build(), {"m": m, "n": n, "x": x, "y": y, "z": z, "t": t}


def random_network(
    seed: int = 0, num_inputs: int = 5, num_gates: int = 12
) -> object:
    """A small random gate network for function-preservation checks."""
    rng = random.Random(seed)
    builder = NetworkBuilder(f"rand{seed}")
    signals = builder.pis(num_inputs)
    kinds = ["and", "or", "nand", "nor", "xor", "xnor"]
    for _ in range(num_gates):
        if rng.random() < 0.2:
            arity = rng.randint(3, 4)
            fanins = [rng.choice(signals) for _ in range(arity)]
            table = TruthTable(arity, rng.getrandbits(1 << arity))
            signals.append(builder.table(table, fanins))
        elif rng.random() < 0.15:
            signals.append(builder.not_(rng.choice(signals)))
        else:
            a, b = rng.choice(signals), rng.choice(signals)
            signals.append(builder.gate(rng.choice(kinds), [a, b]))
    for j in range(3):
        builder.po(signals[-(j + 1)], f"o{j}")
    return builder.build()


def networks_equal(net_a, net_b, width: int = 256, seed: int = 0) -> bool:
    """Positional PI/PO equivalence check by random bit-parallel simulation."""
    rng = random.Random(seed)
    batch = PatternBatch(net_a.pis, rng)
    batch.add_random(width)
    values_a = Simulator(net_a).run_batch(batch)
    words = batch.words()
    mapping = {pb: words[pa] for pa, pb in zip(net_a.pis, net_b.pis)}
    values_b = Simulator(net_b).run_words(mapping, width)
    return all(
        values_a[ua] == values_b[ub]
        for (_, ua), (_, ub) in zip(net_a.pos, net_b.pos)
    )
