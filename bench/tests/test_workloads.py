"""Seeded inputs: reproducible, and exactly the circuits the checks assume."""
from qmpc.circuits import parse_qasm
from workloads import SPECS, make_round


def texts(name, seed):
    return [src.qasm for batch in make_round(SPECS[name], seed) for src in batch]


def test_same_seed_gives_byte_identical_inputs():
    for name in SPECS:
        assert texts(name, 11) == texts(name, 11)
        assert texts(name, 11) != texts(name, 12)


def test_text_parses_to_the_generators_own_gates():
    for name in SPECS:
        for src in make_round(SPECS[name], 4)[0]:
            parsed = parse_qasm(src.qasm, src.id)
            assert (parsed.num_qubits, parsed.num_clbits) == (src.num_qubits, src.num_clbits)
            assert [(g.kind, g.qubits, g.params, g.clbit) for g in parsed.gates] == [
                (o.kind, o.qubits, o.params, o.clbit) for o in src.ops
            ]


def test_sizes_stay_in_range():
    for name, spec in SPECS.items():
        batches = make_round(spec, 2)
        assert len(batches) == spec.batches and all(len(b) == spec.batch_size for b in batches)
        for src in (s for b in batches for s in b):
            assert spec.qubits[0] <= src.num_qubits <= spec.qubits[1]
            gates = sum(1 for o in src.ops if o.kind != "measure")
            assert spec.gates[0] <= gates <= spec.gates[1]


def test_mid_circuit_measurements_are_reused_and_own_their_bits():
    spec = SPECS["verify"]
    for src in (s for b in make_round(spec, 9) for s in b):
        measures = [i for i, o in enumerate(src.ops) if o.kind == "measure"]
        bits = [src.ops[i].clbit for i in measures]
        assert len(bits) == len(set(bits)) == src.num_clbits
        mid = [i for i in measures if any(o.kind != "measure" for o in src.ops[i + 1:])]
        assert len(mid) == spec.mid_measures
        for i in mid:
            q = src.ops[i].qubits[0]
            assert any(o.kind != "measure" and q in o.qubits for o in src.ops[i + 1:])
