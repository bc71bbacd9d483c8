"""Unit and property tests for TruthTable."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogicError
from repro.logic.truthtable import MAX_VARS, TruthTable

tables = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.builds(
        TruthTable,
        st.just(n),
        st.integers(min_value=0, max_value=(1 << (1 << n)) - 1),
    )
)


class TestConstruction:
    def test_const_false(self):
        tt = TruthTable.const(3, False)
        assert tt.bits == 0
        assert tt.const_value() == 0

    def test_const_true(self):
        tt = TruthTable.const(3, True)
        assert tt.bits == 0xFF
        assert tt.const_value() == 1

    def test_var_semantics(self):
        tt = TruthTable.var(3, 1)
        for m in range(8):
            assert tt.output_for(m) == (m >> 1) & 1

    @pytest.mark.parametrize("num_vars", range(11))
    def test_var_mask_matches_minterm_definition(self, num_vars):
        """The closed-form projection mask sets exactly the minterms
        whose bit ``index`` is 1."""
        for index in range(num_vars):
            expected = sum(
                1 << m for m in range(1 << num_vars) if (m >> index) & 1
            )
            assert TruthTable.var(num_vars, index).bits == expected

    def test_var_out_of_range(self):
        with pytest.raises(LogicError):
            TruthTable.var(2, 2)

    def test_from_minterms(self):
        tt = TruthTable.from_minterms(2, [0, 3])
        assert tt.bits == 0b1001

    def test_from_minterms_out_of_range(self):
        with pytest.raises(LogicError):
            TruthTable.from_minterms(2, [4])

    def test_from_outputs(self):
        tt = TruthTable.from_outputs([0, 1, 1, 0])
        assert tt.num_vars == 2
        assert tt.bits == 0b0110

    def test_from_outputs_bad_length(self):
        with pytest.raises(LogicError):
            TruthTable.from_outputs([0, 1, 1])

    def test_from_hex_roundtrip(self):
        tt = TruthTable(3, 0xCA)
        assert TruthTable.from_hex(3, tt.to_hex()) == tt

    def test_bits_out_of_range(self):
        with pytest.raises(LogicError):
            TruthTable(1, 0b100)

    def test_num_vars_bounds(self):
        with pytest.raises(LogicError):
            TruthTable(MAX_VARS + 1, 0)
        with pytest.raises(LogicError):
            TruthTable(-1, 0)


class TestQueries:
    def test_evaluate_matches_output_for(self):
        tt = TruthTable(3, 0b10110100)
        for m in range(8):
            bits = [(m >> i) & 1 for i in range(3)]
            assert tt.evaluate(bits) == tt.output_for(m)

    def test_evaluate_arity_mismatch(self):
        with pytest.raises(LogicError):
            TruthTable(2, 0b1000).evaluate([1])

    def test_minterms(self):
        tt = TruthTable(2, 0b1010)
        assert list(tt.minterms()) == [1, 3]

    def test_count_ones(self):
        assert TruthTable(3, 0b10110100).count_ones() == 4

    def test_support_of_degenerate_function(self):
        # f(a, b) = a: does not depend on b.
        tt = TruthTable.var(2, 0)
        assert tt.support() == [0]
        assert not tt.depends_on(1)

    def test_is_const(self):
        assert TruthTable.const(2, True).is_const()
        assert not TruthTable.var(2, 0).is_const()


class TestAlgebra:
    def test_and_or_xor_not(self):
        a = TruthTable.var(2, 0)
        b = TruthTable.var(2, 1)
        assert (a & b).bits == 0b1000
        assert (a | b).bits == 0b1110
        assert (a ^ b).bits == 0b0110
        assert (~a).bits == 0b0101

    def test_arity_mismatch(self):
        with pytest.raises(LogicError):
            TruthTable.var(2, 0) & TruthTable.var(3, 0)

    def test_cofactor_shannon(self):
        # f = a & b; f|a=1 = b, f|a=0 = 0.
        f = TruthTable.var(2, 0) & TruthTable.var(2, 1)
        assert f.cofactor(0, 1).bits == TruthTable.var(2, 1).bits
        assert f.cofactor(0, 0).bits == 0

    def test_cofactor_removes_dependence(self):
        f = TruthTable(3, 0b10010110)  # parity
        assert not f.cofactor(1, 0).depends_on(1)

    def test_compose_identity(self):
        f = TruthTable(2, 0b0110)
        vars2 = [TruthTable.var(2, 0), TruthTable.var(2, 1)]
        assert f.compose(vars2) == f

    def test_compose_inverts(self):
        f = TruthTable.var(1, 0)
        inv = ~TruthTable.var(2, 1)
        assert f.compose([inv]) == inv

    def test_compose_arity_check(self):
        with pytest.raises(LogicError):
            TruthTable(2, 0b0110).compose([TruthTable.var(2, 0)])

    def test_permute_swap(self):
        f = TruthTable.var(2, 0)
        assert f.permute([1, 0]) == TruthTable.var(2, 1)

    def test_permute_invalid(self):
        with pytest.raises(LogicError):
            TruthTable.var(2, 0).permute([0, 0])

    def test_expand_embeds(self):
        f = TruthTable.var(1, 0)
        wide = f.expand(3, [2])
        assert wide == TruthTable.var(3, 2)

    def test_expand_duplicate_positions(self):
        with pytest.raises(LogicError):
            TruthTable(2, 0b0110).expand(3, [1, 1])


class TestProperties:
    @given(tables)
    def test_double_negation(self, tt):
        assert ~~tt == tt

    @given(tables)
    def test_and_self_idempotent(self, tt):
        assert (tt & tt) == tt
        assert (tt | tt) == tt
        assert (tt ^ tt).bits == 0

    @given(tables)
    def test_demorgan(self, tt):
        other = ~tt
        assert ~(tt & other) == (~tt | ~other)

    @given(tables, st.data())
    def test_cofactor_evaluation(self, tt, data):
        if tt.num_vars == 0:
            return
        index = data.draw(st.integers(0, tt.num_vars - 1))
        value = data.draw(st.integers(0, 1))
        cof = tt.cofactor(index, value)
        for m in range(tt.size):
            forced = (m | (1 << index)) if value else (m & ~(1 << index))
            assert cof.output_for(m) == tt.output_for(forced)

    @given(tables)
    def test_shannon_expansion_identity(self, tt):
        # f = (~x & f0) | (x & f1) for every variable.
        for i in range(tt.num_vars):
            x = TruthTable.var(tt.num_vars, i)
            rebuilt = (~x & tt.cofactor(i, 0)) | (x & tt.cofactor(i, 1))
            assert rebuilt == tt

    @given(tables)
    def test_hex_roundtrip(self, tt):
        assert TruthTable.from_hex(tt.num_vars, tt.to_hex()) == tt

    @given(tables)
    def test_support_is_sound(self, tt):
        support = tt.support()
        for i in range(tt.num_vars):
            if i not in support:
                assert tt.cofactor(i, 0) == tt.cofactor(i, 1)

    @given(tables)
    def test_shrink_to_support_round_trips(self, tt):
        shrunk, support = tt.shrink_to_support()
        assert support == tt.support()
        assert shrunk.num_vars == len(support)
        assert shrunk.support() == list(range(len(support)))
        assert shrunk.expand(tt.num_vars, support) == tt


@st.composite
def outer_bits(draw, num_vars):
    """A minterm mask over ``num_vars`` inputs: empty, full, a few onset
    minterms, a few offset minterms, or any."""
    full = TruthTable.full_mask(num_vars)
    few = st.sets(st.integers(0, (1 << num_vars) - 1), max_size=3)
    return draw(
        st.one_of(
            st.just(0),
            st.just(full),
            few.map(lambda ms: sum(1 << m for m in ms)),
            few.map(lambda ms: full ^ sum(1 << m for m in ms)),
            st.integers(0, full),
        )
    )


@st.composite
def compositions(draw):
    """An outer table of 0-6 inputs and one fanin table per input, all
    over one arity of 0-8 inputs."""
    num_vars = draw(st.integers(0, 6))
    outer = TruthTable(num_vars, draw(outer_bits(num_vars)))
    base = draw(st.integers(0, 8))
    fanins = [
        TruthTable(base, draw(outer_bits(base))) for _ in range(num_vars)
    ]
    return outer, fanins


class TestCompose:
    """The word-parallel ``compose`` against per-minterm evaluation."""

    @settings(max_examples=300, deadline=None)
    @given(compositions())
    def test_matches_per_minterm_evaluation(self, case):
        outer, fanins = case
        result = outer.compose(fanins)
        if outer.num_vars == 0:
            assert result == outer
            return
        base = fanins[0].num_vars
        expected = 0
        for m in range(1 << base):
            local = sum(
                ((table.bits >> m) & 1) << i for i, table in enumerate(fanins)
            )
            expected |= ((outer.bits >> local) & 1) << m
        assert result == TruthTable(base, expected)


class TestValueSemantics:
    """Tables key dicts and caches: the cached hash must keep the value
    the dataclass used to compute, so set and dict orders do not move."""

    @given(tables)
    def test_hash_is_the_field_tuple_hash(self, tt):
        assert hash(tt) == hash((tt.num_vars, tt.bits))

    @given(tables, tables)
    def test_equality_follows_the_fields(self, first, second):
        same = (first.num_vars, first.bits) == (second.num_vars, second.bits)
        assert (first == second) is same
        if same:
            assert hash(first) == hash(second)

    def test_equal_tables_share_a_dict_slot(self):
        cache = {TruthTable(2, 0b1000): "and"}
        assert cache[TruthTable.var(2, 0) & TruthTable.var(2, 1)] == "and"
        assert TruthTable(2, 0b1000) != TruthTable(3, 0b1000)

    def test_repr_shows_the_fields_only(self):
        assert repr(TruthTable(2, 6)) == "TruthTable(num_vars=2, bits=6)"

    @given(tables)
    def test_pickle_round_trip(self, tt):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(tt, protocol))
            assert copy == tt
            assert hash(copy) == hash(tt)
            assert repr(copy) == repr(tt)
