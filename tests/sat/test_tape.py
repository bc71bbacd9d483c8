"""The C cone encoder over a lowered tape vs the reference Tseitin encoder.

:class:`~repro.sat.tape.ConeEncoder` must be a transcription of
:class:`~repro.sat.tseitin.TseitinEncoder`: the same variable for every
node, the same clause stream (clause order and literal order), the same
variable count after selector allocations, and the same PI vectors from a
model.  Shipping its stream in one ``sat_add_clauses`` call must leave the
solver where per-clause ``add_clause`` calls leave it.
"""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SatError
from repro.logic import TruthTable
from repro.network.network import Network
from repro.sat.compiled import SAT_CORE, CArenaCdclSolver
from repro.sat.solver import SatResult
from repro.sat.tape import CnfTape, ConeEncoder, stream_encoding_available
from repro.sat.tseitin import TseitinEncoder, pair_miter
from repro.sweep.checker import PairChecker
from tests.conftest import random_network

needs_c_core = pytest.mark.skipif(
    SAT_CORE != "c", reason="no C compiler available at import time"
)


def flat(clauses) -> list[int]:
    """Reference clauses as the C encoder's 0-terminated stream."""
    return [lit for clause in clauses for lit in (*clause, 0)]


@st.composite
def networks(draw):
    """Small networks with constants, constant-function gates and
    repeated fanins (every fanin is drawn with replacement)."""
    network = Network("fuzz")
    nodes = [network.add_pi() for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["gate", "gate", "gate", "const", "flat"]))
        if kind == "const":
            nodes.append(network.add_const(draw(st.booleans())))
            continue
        arity = draw(st.integers(1, 4))
        fanins = [draw(st.sampled_from(nodes)) for _ in range(arity)]
        if kind == "flat":
            table = TruthTable.const(arity, draw(st.booleans()))
        else:
            bits = draw(st.integers(0, (1 << (1 << arity)) - 1))
            table = TruthTable(arity, bits)
        nodes.append(network.add_gate(table, fanins))
    return network


@needs_c_core
class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_incremental_queries_match_reference(self, data):
        network = data.draw(networks())
        uids = network.node_ids()
        reference = TseitinEncoder(network)
        encoder = ConeEncoder(CnfTape(network))
        # Roots repeat and land inside already-encoded cones; selector
        # allocations interleave with the encodings.
        queries = data.draw(
            st.lists(
                st.tuples(st.sampled_from(uids), st.booleans()),
                min_size=1,
                max_size=12,
            )
        )
        for root, selector in queries:
            assert encoder.encode_cone(root) == reference.encode_cone(root)
            if selector:
                assert encoder.new_var() == reference.cnf.new_var()
            assert encoder.stream() == flat(reference.cnf.clauses)
            assert encoder.num_vars == reference.cnf.num_vars
            for uid in uids:
                assert encoder.var_of(uid) == reference.var_of(uid)
        num_vars = encoder.num_vars
        model = data.draw(
            st.dictionaries(
                st.integers(1, max(1, num_vars)),
                st.booleans(),
                max_size=num_vars,
            )
        )
        assert (
            encoder.model_to_vector(model).values
            == reference.model_to_vector(model).values
        )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_miter_matches_pair_miter(self, data):
        network = data.draw(networks())
        uids = network.node_ids()
        encoder = ConeEncoder(CnfTape(network))
        for _ in range(3):
            node_a = data.draw(st.sampled_from(uids))
            others = [u for u in uids if u != node_a]
            node_b = data.draw(st.sampled_from(others))
            complement = data.draw(st.booleans())
            cnf, reference = pair_miter(network, node_a, node_b, complement)
            encoder.miter(node_a, node_b, complement)
            assert encoder.stream() == flat(cnf.clauses)
            assert encoder.num_vars == cnf.num_vars
            for uid in uids:
                assert encoder.var_of(uid) == reference.var_of(uid)

    def test_miter_of_a_node_with_itself_rejected(self):
        network = random_network(seed=0)
        encoder = ConeEncoder(CnfTape(network))
        gate = network.node_ids()[-1]
        with pytest.raises(SatError):
            encoder.miter(gate, gate)


@needs_c_core
class TestShipping:
    @pytest.mark.parametrize("seed", range(6))
    def test_bulk_ship_equals_per_clause_adds(self, seed):
        """Same variables created at the same points, same clauses: the two
        solvers then search identically."""
        network = random_network(seed=seed, num_inputs=6, num_gates=40)
        gates = [n.uid for n in network.gates()]
        rng = random.Random(seed)
        reference = TseitinEncoder(network)
        encoder = ConeEncoder(CnfTape(network))
        bulk, single = CArenaCdclSolver(), CArenaCdclSolver()
        shipped = loaded = 0
        for _ in range(8):
            node_a, node_b = rng.sample(gates, 2)
            var_a = encoder.encode_cone(node_a)
            var_b = encoder.encode_cone(node_b)
            assert (var_a, var_b) == (
                reference.encode_cone(node_a),
                reference.encode_cone(node_b),
            )
            shipped = encoder.ship(bulk, shipped)
            for clause in reference.cnf.clauses[loaded:]:
                single.add_clause(clause)
            loaded = len(reference.cnf.clauses)
            assert bulk.num_vars == single.num_vars
            selector = encoder.new_var()
            assert selector == reference.cnf.new_var()
            for solver in (bulk, single):
                solver.add_clause([-selector, var_a, var_b])
                solver.add_clause([-selector, -var_a, -var_b])
            results = [
                solver.solve(assumptions=[selector])
                for solver in (bulk, single)
            ]
            assert results[0] == results[1]
            if results[0] is SatResult.SAT:
                assert bulk.model() == single.model()
            assert bulk.stats["propagations"] == single.stats["propagations"]
            assert bulk.stats["decisions"] == single.stats["decisions"]

    def test_load_into_equals_add_cnf(self):
        network = random_network(seed=3, num_inputs=6, num_gates=40)
        gates = [n.uid for n in network.gates()]
        encoder = ConeEncoder(CnfTape(network))
        encoder.miter(gates[0], gates[-1])
        cnf, _ = pair_miter(network, gates[0], gates[-1])
        bulk, single = CArenaCdclSolver(), CArenaCdclSolver()
        encoder.load_into(bulk)
        single.add_cnf(cnf)
        assert bulk.num_vars == single.num_vars == cnf.num_vars
        assert bulk.solve() == single.solve()
        assert bulk.stats["propagations"] == single.stats["propagations"]

    def test_ensure_vars_creates_missing_variables_only(self):
        solver = CArenaCdclSolver()
        solver._ensure_vars(5000)
        assert solver.num_vars == 5000
        solver._ensure_vars(10)
        assert solver.num_vars == 5000
        assert solver.new_var() == 5001


class TestTape:
    def test_tape_pickles(self):
        network = random_network(seed=1)
        tape = CnfTape(network)
        copy = pickle.loads(pickle.dumps(tape))
        assert copy.offsets == tape.offsets
        assert copy.records == tape.records
        assert copy.templates == tape.templates
        assert copy.number == tape.number
        assert copy.pis == tape.pis

    def test_templates_shared_per_table(self):
        network = Network("shared")
        a, b = network.add_pi(), network.add_pi()
        and2 = TruthTable(2, 0b1000)
        for _ in range(5):
            network.add_gate(and2, (a, b))
        tape = CnfTape(network)
        # One AND template: 3 clauses of 2, 1 and 1 literals.
        assert len(tape.templates) == 1 + (2 + 2) + (2 + 1) + (2 + 1)

    def test_stream_encoding_follows_the_backend(self):
        assert not stream_encoding_available("reference")
        assert stream_encoding_available("compiled") == (SAT_CORE == "c")

    @needs_c_core
    def test_checker_encodes_in_c_on_the_c_core(self):
        network = random_network(seed=2)
        gates = [n.uid for n in network.gates()]
        compiled = PairChecker(network, backend="compiled")
        reference = PairChecker(network, backend="reference")
        for checker in (compiled, reference):
            checker.check(gates[0], gates[-1])
        assert isinstance(compiled._encoder, ConeEncoder)
        assert isinstance(reference._encoder, TseitinEncoder)


class TestPythonOptOut:
    def test_python_core_selects_the_reference_encoder(self):
        """``REPRO_CCORES=python``: no C core, so the compiled backend
        keeps the Python Tseitin encoder in both query modes."""
        env = dict(os.environ, REPRO_CCORES="python")
        root = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
        )
        probe = (
            "from repro.sat.tape import stream_encoding_available\n"
            "from repro.sweep.checker import PairChecker\n"
            "from tests.conftest import random_network\n"
            "net = random_network(seed=2)\n"
            "gates = [n.uid for n in net.gates()]\n"
            "inc = PairChecker(net)\n"
            "pure = PairChecker(net, incremental=False)\n"
            "inc.check(gates[0], gates[-1])\n"
            "pure.check(gates[0], gates[-1])\n"
            "print(stream_encoding_available('compiled'),\n"
            "      type(inc._encoder).__name__, pure._encoder)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "TseitinEncoder", "None"]
