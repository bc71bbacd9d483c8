"""Unit and property tests for cubes, rows, and ISOP extraction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LogicError
from repro.logic.cubes import (
    Cube,
    Row,
    isop,
    isop_cover,
    iter_minterms,
    matching_rows,
    packed_rows,
    rows_of,
)
from repro.logic.gates import and_gate, mux, nand_gate, xor_gate
from repro.logic.truthtable import TruthTable

tables = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.builds(
        TruthTable,
        st.just(n),
        st.integers(min_value=0, max_value=(1 << (1 << n)) - 1),
    )
)


class TestCube:
    def test_from_literals(self):
        cube = Cube.from_literals([1, None, 0])
        assert cube.literal(0) == 1
        assert cube.literal(1) is None
        assert cube.literal(2) == 0
        assert cube.num_dc() == 1
        assert cube.num_bound() == 2

    def test_from_literals_rejects_bad_values(self):
        with pytest.raises(LogicError):
            Cube.from_literals([2])

    def test_contains(self):
        cube = Cube.from_literals([1, None])
        assert cube.contains(0b01)
        assert cube.contains(0b11)
        assert not cube.contains(0b00)

    def test_values_outside_mask_rejected(self):
        with pytest.raises(LogicError):
            Cube(2, 0b01, 0b10)

    def test_with_literal(self):
        cube = Cube.full_dc(3).with_literal(1, 1)
        assert cube.literal(1) == 1
        assert cube.num_dc() == 2

    def test_to_truthtable(self):
        cube = Cube.from_literals([1, 0])
        tt = cube.to_truthtable()
        assert list(tt.minterms()) == [0b01]

    def test_compatible_with(self):
        cube = Cube.from_literals([1, None, 0])
        assert cube.compatible_with([1, 0, None])
        assert cube.compatible_with([None, None, None])
        assert not cube.compatible_with([0, None, None])

    def test_str(self):
        assert str(Cube.from_literals([1, None, 0])) == "1-0"

    def test_iter_minterms(self):
        cube = Cube.from_literals([None, 1])
        assert sorted(iter_minterms(cube)) == [0b10, 0b11]


class TestRow:
    def test_matches_output_filter(self):
        row = Row(Cube.from_literals([1, None]), 1)
        assert row.matches([1, None], 1)
        assert not row.matches([1, None], 0)
        assert row.matches([None, 0], None)

    def test_dc_size_is_equation_1(self):
        row = Row(Cube.from_literals([None, 1, None]), 0)
        assert row.dc_size() == 2

    def test_bad_output(self):
        with pytest.raises(LogicError):
            Row(Cube.full_dc(1), 2)


class TestIsop:
    def test_and_gate_single_cube(self):
        cubes = isop(and_gate(3))
        assert len(cubes) == 1
        assert str(cubes[0]) == "111"

    def test_nand_offset_is_and_onset(self):
        assert [str(c) for c in isop(~nand_gate(2))] == ["11"]

    def test_xor_needs_two_cubes(self):
        cubes = isop(xor_gate(2))
        assert len(cubes) == 2

    def test_const0_empty_cover(self):
        assert isop(TruthTable.const(3, False)) == []

    def test_const1_universal_cube(self):
        cubes = isop(TruthTable.const(3, True))
        assert len(cubes) == 1
        assert cubes[0].num_dc() == 3

    @given(tables)
    def test_cover_equals_onset(self, tt):
        cover = 0
        for cube in isop(tt):
            for m in iter_minterms(cube):
                cover |= 1 << m
        assert cover == tt.bits

    @given(tables)
    def test_cubes_never_overlap_offset(self, tt):
        for cube in isop(tt):
            for m in iter_minterms(cube):
                assert tt.output_for(m) == 1

    @given(tables)
    def test_irredundant(self, tt):
        """Dropping any cube must leave some onset minterm uncovered."""
        cubes = isop(tt)
        if len(cubes) < 2:
            return
        full = set()
        for cube in cubes:
            full.update(iter_minterms(cube))
        for skip in range(len(cubes)):
            partial = set()
            for i, cube in enumerate(cubes):
                if i != skip:
                    partial.update(iter_minterms(cube))
            assert partial != full

    @given(tables)
    def test_isop_cover_matches_isop(self, tt):
        assert list(isop_cover(tt)) == isop(tt)

    def test_isop_cover_is_memoized(self):
        tt = TruthTable(3, 0b10010110)
        assert isop_cover(tt) is isop_cover(TruthTable(3, 0b10010110))


class TestRowsOf:
    def test_every_minterm_covered_with_correct_output(self):
        tt = mux()
        rows = rows_of(tt)
        for m in range(tt.size):
            covering = [r for r in rows if r.cube.contains(m)]
            assert covering, f"minterm {m} uncovered"
            for row in covering:
                assert row.output == tt.output_for(m)

    def test_cached_identity(self):
        assert rows_of(and_gate(2)) is rows_of(and_gate(2))

    @given(tables)
    def test_onset_offset_partition(self, tt):
        rows = rows_of(tt)
        for m in range(tt.size):
            outputs = {r.output for r in rows if r.cube.contains(m)}
            assert outputs == {tt.output_for(m)}

    def test_packed_rows_agree_with_rows(self):
        tt = mux()
        packed = packed_rows(tt)
        rows = rows_of(tt)
        assert len(packed) == len(rows)
        for (mask, values, output), row in zip(packed, rows):
            assert mask == row.cube.mask
            assert values == row.cube.values
            assert output == row.output


class TestMatchingRows:
    def test_filters_on_inputs_and_output(self):
        tt = and_gate(2)
        # Output 1 forces the single 11 row.
        rows = matching_rows(tt, [None, None], 1)
        assert len(rows) == 1
        assert str(rows[0].cube) == "11"

    def test_input_filter(self):
        tt = and_gate(2)
        rows = matching_rows(tt, [1, None], None)
        # With a=1 both outputs remain possible.
        assert {r.output for r in rows} == {0, 1}

    def test_no_match_is_contradiction(self):
        tt = and_gate(2)
        assert matching_rows(tt, [0, None], 1) == []


def packing_caches() -> list:
    """Every per-function cache in ``repro`` whose value is ``bytes``: a
    gate function packed into words for a C core."""
    import sys

    probe = and_gate(2)
    found = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro."):
            continue
        for value in list(vars(module).values()):
            wrapped = getattr(value, "__wrapped__", None)
            if wrapped is None or not hasattr(value, "cache_clear"):
                continue
            try:
                packed = wrapped(probe)
            except Exception:
                continue
            if isinstance(packed, bytes):
                found[id(value)] = value
    return list(found.values())


class TestOneCoverPerFunction:
    def test_cold_sweep_runs_isop_once_per_function(self, monkeypatch):
        """The simulator's plans, SimGen's decisions and the SAT clauses
        all take their covers from ``isop_cover``: with the ISOP caches
        cleared, a sweep passes no function to ``isop`` twice."""
        import sys
        from collections import Counter

        from repro.benchgen import sweep_instance
        from repro.core.strategies import make_generator
        from repro.logic import cubes
        from repro.simulation import simulator
        from repro.sweep import SweepConfig, SweepEngine

        net = sweep_instance("cps", copies=1)
        packers = packing_caches()
        original = cubes.isop
        calls = Counter()

        def counting_isop(table):
            calls[table] += 1
            return original(table)

        for module in list(sys.modules.values()):
            if getattr(module, "isop", None) is original:
                monkeypatch.setattr(module, "isop", counting_isop)
        for cache in (
            cubes.isop_cover,
            cubes.rows_of,
            cubes.packed_rows,
            simulator._eval_plan,
            *packers,
        ):
            cache.cache_clear()
        result = SweepEngine(
            net,
            make_generator("AI+DC+MFFC", net, seed=0),
            SweepConfig(seed=0),
        ).run()
        assert result.metrics.sat_calls > 0
        assert calls
        assert max(calls.values()) == 1

    def test_cold_sweep_packs_each_function_once(self):
        """The simulator core, the cone encoder and the SimGen core read
        one packed form of a gate function, its rows: with every packing
        cache cleared, a cold sweep of cps, serial and then with two
        workers, packs each distinct gate function exactly once."""
        from repro.benchgen import sweep_instance
        from repro.core import batch
        from repro.core.strategies import make_generator
        from repro.io import bench_text, parse_bench
        from repro.sat.tape import stream_encoding_available
        from repro.simulation import compiled as sim_compiled
        from repro.sweep import SweepConfig, SweepEngine

        if not (
            batch.SIMGEN_CORE == sim_compiled.SIM_CORE == "c"
            and stream_encoding_available("compiled")
        ):
            pytest.skip("the C cores are not available")
        text = bench_text(sweep_instance("cps", copies=1))
        serial, pooled = parse_bench(text), parse_bench(text)
        functions = {node.table for node in serial.gates() if node.num_fanins}
        caches = packing_caches()
        assert caches
        for cache in caches:
            cache.cache_clear()
        simulators = sim_compiled.tape_cache_info()["misses"]
        for network, jobs in ((serial, 1), (pooled, 2)):
            result = SweepEngine(
                network,
                make_generator("AI+DC+MFFC", network, seed=0),
                SweepConfig(seed=0, jobs=jobs),
            ).run()
            assert result.metrics.sat_calls > 0
        # Both networks were simulated on the core.
        assert sim_compiled.tape_cache_info()["misses"] == simulators + 2
        packed = sum(cache.cache_info().misses for cache in caches)
        assert packed == len(functions)
