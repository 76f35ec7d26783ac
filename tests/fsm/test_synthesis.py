"""FSM synthesis: the circuit must agree with behavioral stepping."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.circuit.validate import validate_circuit
from repro.fsm.encoding import encode_states
from repro.fsm.machine import Fsm, Transition
from repro.fsm.synthesis import share_common_pairs, synthesize_fsm
from repro.io_formats.kiss2 import parse_kiss2
from repro.simulation.twoval import output_values


def _behavior_matches(fsm, circuit, encoding):
    """Compare gate-level outputs to Fsm.step over the whole input space."""
    enc = encoding
    b = enc.num_bits
    for state in fsm.states:
        code = enc.codes[state]
        for x in range(1 << fsm.num_inputs):
            vector = (x << b) | code
            got = output_values(circuit, vector)
            ns_bits = got[: b]
            z_bits = got[b:]
            expected_next, expected_out = fsm.step(state, x)
            if expected_next == "":
                expected_code = 0
            else:
                expected_code = enc.codes[expected_next]
            got_code = 0
            for bit in ns_bits:
                got_code = (got_code << 1) | bit
            assert got_code == expected_code, (state, x)
            assert "".join(map(str, z_bits)) == expected_out, (state, x)


@pytest.fixture(scope="module")
def toy_fsm():
    return parse_kiss2(
        ".i 2\n.o 2\n.r a\n"
        "00 a a 00\n01 a b 01\n1- a c 10\n"
        "0- b a 11\n1- b b 01\n"
        "-- c a 10\n",
        name="toy3",
    )


class TestSynthesisCorrectness:
    @pytest.mark.parametrize("strategy", ["binary", "gray", "onehot"])
    def test_matches_behavior(self, toy_fsm, strategy):
        enc = encode_states(toy_fsm.states, strategy)
        circuit = synthesize_fsm(toy_fsm, encoding=enc)
        _behavior_matches(toy_fsm, circuit, enc)

    def test_flat_pla_matches_behavior(self, toy_fsm):
        enc = encode_states(toy_fsm.states, "binary")
        circuit = synthesize_fsm(toy_fsm, encoding=enc, max_arity=None)
        _behavior_matches(toy_fsm, circuit, enc)

    def test_no_merge_matches_behavior(self, toy_fsm):
        enc = encode_states(toy_fsm.states, "binary")
        circuit = synthesize_fsm(toy_fsm, encoding=enc, merge_terms=False)
        _behavior_matches(toy_fsm, circuit, enc)

    @pytest.mark.parametrize(
        "name", ["lion", "train4", "modulo12", "dk27", "mc", "bbtas"]
    )
    def test_hand_written_suite_members(self, name):
        from repro.bench_suite.mcnc import kiss2_source

        fsm = parse_kiss2(kiss2_source(name), name=name)
        enc = encode_states(fsm.states, "binary")
        circuit = synthesize_fsm(fsm, encoding=enc)
        _behavior_matches(fsm, circuit, enc)


class TestSynthesisStructure:
    def test_validates_clean(self, toy_fsm):
        circuit = synthesize_fsm(toy_fsm)
        assert validate_circuit(circuit) == []

    def test_input_order(self, toy_fsm):
        circuit = synthesize_fsm(toy_fsm)
        names = [circuit.lines[i].name for i in circuit.inputs]
        assert names == ["x0", "x1", "s0", "s1"]

    def test_output_order(self, toy_fsm):
        circuit = synthesize_fsm(toy_fsm)
        names = [circuit.lines[o].name for o in circuit.outputs]
        assert names == ["ns0", "ns1", "z0", "z1"]

    def test_max_arity_respected(self, toy_fsm):
        circuit = synthesize_fsm(toy_fsm, max_arity=2)
        for line in circuit.gate_lines():
            assert len(line.fanin) <= 2

    def test_nondeterministic_cover_rejected(self):
        fsm = Fsm(
            name="bad",
            num_inputs=1,
            num_outputs=1,
            states=["s"],
            reset_state="s",
            transitions=[
                Transition("-", "s", "s", "1"),
                Transition("1", "s", "s", "0"),
            ],
        )
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            synthesize_fsm(fsm)

    def test_encoding_changes_circuit(self, toy_fsm):
        binary = synthesize_fsm(toy_fsm, encoding="binary")
        onehot = synthesize_fsm(toy_fsm, encoding="onehot")
        assert onehot.num_inputs > binary.num_inputs


def _recount_common_pairs(sets, new_name):
    """The first greedy factoring: recount every set's pairs each round."""
    gates = []
    while True:
        pair_count = {}
        for s in sets:
            ordered = sorted(set(s))
            for i, a in enumerate(ordered):
                for bb in ordered[i + 1:]:
                    pair_count[(a, bb)] = pair_count.get((a, bb), 0) + 1
        best_pair = None
        best_n = 1
        for pair, cnt in sorted(pair_count.items()):
            if cnt > best_n:
                best_pair, best_n = pair, cnt
        if best_pair is None:
            return gates
        a, bb = best_pair
        nm = new_name()
        gates.append((nm, a, bb))
        for s in sets:
            if a in s and bb in s:
                s.remove(a)
                s.remove(bb)
                s.append(nm)


def _namer(prefix):
    names = (f"{prefix}{i}" for i in itertools.count())
    return lambda: next(names)


class TestShareCommonPairs:
    def test_shares_most_frequent_pair_first(self):
        sets = [["x", "y", "z"], ["x", "y"], ["y", "z", "w"], ["x", "y", "w"]]
        gates = share_common_pairs(sets, _namer("a"))
        assert gates[0] == ("a0", "x", "y")
        assert sets[1] == ["a0"]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_full_recount(self, seed):
        rng = random.Random(seed)
        alphabet = [f"v{i}" for i in range(rng.randint(3, 12))]
        sets = [
            rng.sample(alphabet, rng.randint(1, len(alphabet)))
            for _ in range(rng.randint(1, 30))
        ]
        expected_sets = [list(s) for s in sets]
        expected = _recount_common_pairs(expected_sets, _namer("a"))
        assert share_common_pairs(sets, _namer("a")) == expected
        assert sets == expected_sets

