"""Compile two workloads onto one 16-qubit device simultaneously, then verify
the merged program and report the metrics.

Run with:  python3 demos/05_multiprogramming_pipeline.py
"""
import json

from qmpc import parse_qasm
from qmpc.hardware import build_hardware
from qmpc.pipeline import RunConfig, compile_workloads
from qmpc.presets import synthetic_calibration, topology
from qmpc.verify import check_equivalence

GHZ4 = """
qreg q[4]; creg c[4];
h q[0]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3];
measure q -> c;
"""

ADDER_LIKE = """
qreg q[3]; creg c[3];
h q[0]; h q[1];
cx q[0],q[2]; cx q[1],q[2]; t q[2]; cx q[0],q[1];
measure q -> c;
"""

topo = topology("guadalupe")
model = build_hardware(topo, synthetic_calibration(topo, seed=11))
circuits = [parse_qasm(GHZ4, "ghz4"), parse_qasm(ADDER_LIKE, "adder3")]

result = compile_workloads(model, circuits, RunConfig(seed=42))

for compiled in result.plans:
    plan = compiled.plan
    print(f"verdict {plan.verdict_label()}  circuits {list(plan.selected)}")
    print(f"  score degradation vs solo runs: {plan.delta_s:.4f} (threshold {plan.threshold})")
    print(f"  trial reduction factor: {plan.trf}")
    for part in plan.partitions:
        print(f"  {part.circuit_id}: region {part.qubits} score {part.score:.4f}")
    for cid, counts in compiled.stats["circuits"].items():
        print(f"  {cid}: +{counts['additional_cnots']} CNOTs "
              f"({counts['swaps']} swaps, {counts['bridges']} bridges)")
    print(f"  merged depth {compiled.stats['depth']}, estimated success {compiled.stats['esp']:.3f}")

    report = check_equivalence(compiled.circuits, compiled.merged, compiled.manifest)
    print(f"  equivalence check: {'PASS' if report.passed else 'FAIL'} "
          f"(worst total variation {report.max_tv:.2e})")

    print("  manifest:", json.dumps(compiled.manifest))
    print("  first lines of the merged program:")
    for line in compiled.qasm.splitlines()[:8]:
        print(f"    {line}")
