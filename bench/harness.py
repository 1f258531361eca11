"""Device set-up and the measured loop of one benchmark run."""
from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass

from qmpc import presets
from qmpc.circuits import QuantumCircuit, parse_qasm
from qmpc.errors import QmpcError
from qmpc.hardware import CrosstalkTable, HardwareModel, build_crosstalk, build_hardware, extract_strong_crosstalk
from qmpc.pipeline import RunConfig, compile_workloads
from qmpc.verify import check_equivalence

import checks
import spans
from workloads import SPECS, Spec, make_round, synthetic_crosstalk

# the device (calibration and crosstalk) is the same in every run; only the
# circuits and the compiler's own seed come from the workload seed
DEVICE_SEED = 0
# median reference-loop time on the machine where the README's figures were taken
REF_NOMINAL_S = 0.015


def reference_loop() -> float:
    """CPU seconds taken by a fixed pure-Python loop shaped like the
    compiler's inner loops: tuple keys, dict updates, float sums and a sort."""
    start = time.process_time()
    table: dict[tuple[int, int], int] = {}
    acc = 0.0
    for i in range(12000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
        acc += (i * 0.5) % 7.0
    order = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    if not order or acc <= 0.0:
        raise RuntimeError("reference loop did no work")
    return time.process_time() - start


def _timed(fn, *args):
    """Result and CPU seconds of one call, started from a collected heap so
    that garbage left by earlier calls does not land in its time."""
    gc.collect()
    start = time.process_time()
    result = fn(*args)
    return result, time.process_time() - start


@dataclass
class Env:
    spec: Spec
    seed: int
    model: HardwareModel
    strong: CrosstalkTable | None
    config: RunConfig
    edges: set[tuple[int, int]]
    cnot_error: dict[tuple[int, int], float]
    readout_error: list[float]


def prepare(workload: str, seed: int) -> Env:
    """Build the device model and, where the workload has one, the strong
    crosstalk table: the set-up a user pays before the first compile."""
    spec = SPECS[workload]
    topo = presets.topology(spec.device)
    calibration = presets.synthetic_calibration(topo, seed=DEVICE_SEED)
    model = build_hardware(topo, calibration)
    strong = None
    if spec.crosstalk:
        pairs = synthetic_crosstalk(topo, model.cnot_error, DEVICE_SEED)
        strong = extract_strong_crosstalk(build_crosstalk(pairs, model), model)
    return Env(
        spec, seed, model, strong, RunConfig(method=spec.method, seed=seed),
        edges={(min(a, b), max(a, b)) for a, b in topo["edges"]},
        cnot_error={(min(a, b), max(a, b)): err for a, b, err in calibration["cnot_errors"]},
        readout_error=list(calibration["readout_errors"]),
    )


def _digest(result) -> str:
    h = hashlib.sha256()
    for compiled in result.plans:
        h.update(compiled.qasm.encode())
        h.update(json.dumps(compiled.manifest, sort_keys=True).encode())
    return h.hexdigest()


class Run:
    """Whole rounds over the seeded pool of batches, with their samples."""

    def __init__(self, env: Env, traced: bool):
        self.env = env
        self.refs: list[float] = []
        self.traced = traced
        self.pool = make_round(env.spec, env.seed)
        if traced:
            # every operation runs twice, untraced and traced: half the pool
            # keeps a traced run about as long as an untraced one
            self.pool = self.pool[: (len(self.pool) + 1) // 2]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []
        self.compile_s: list[float] = []
        self.verify_s: list[float] = []
        self.compiled_circuits = 0
        self.round_digests: list[str] = []
        self.quality: dict | None = None
        self.layer_rounds: list[spans.Recorder] = []
        self.untraced_s = 0.0
        self.traced_s = 0.0

    def until(self, deadline: float) -> None:
        """Whole rounds; another starts only if one more fits the deadline."""
        while True:
            start = time.perf_counter()
            self._round()
            now = time.perf_counter()
            if now + (now - start) > deadline:
                break
        self.refs.append(reference_loop())
        if len(set(self.round_digests)) != 1:
            self._wrong("emitted programs differ between rounds of the same inputs")
        counts = {json.dumps(sorted(rec.counts.items())) for rec in self.layer_rounds}
        if len(counts) > 1:
            self._wrong("layer counts differ between rounds of the same inputs")

    def _wrong(self, message: str) -> None:
        self.correct = False
        self.errors.append(message)

    def _compile(self, batch, rec=None):
        span = rec.span if rec is not None else (lambda name: contextlib.nullcontext())
        with span("circuits.parse_qasm"):
            circuits = [parse_qasm(src.qasm, src.id) for src in batch]
        with span("pipeline.compile_workloads"):
            return compile_workloads(self.env.model, circuits, self.env.config, self.env.strong)

    def _equivalence_jobs(self, result):
        """Whole merged programs on ``verify``; elsewhere they exceed the
        simulator's cap, so each circuit is checked against its own region,
        which alone carries its result because regions are disjoint."""
        if self.env.spec.whole_program_check:
            return [(c.circuits, c.merged, c.manifest) for c in result.plans]
        jobs = []
        for compiled in result.plans:
            merged = compiled.merged
            for circuit, part in zip(compiled.circuits, compiled.plan.partitions):
                region = set(part.qubits)
                gates = tuple(g for g in merged.gates if region.issuperset(g.qubits))
                sub = QuantumCircuit(circuit.id, merged.num_qubits, merged.num_clbits, gates)
                jobs.append(([circuit], sub, {circuit.id: compiled.manifest[circuit.id]}))
        return jobs

    def _round(self) -> None:
        digest = hashlib.sha256()
        quality = {"added": 0, "log_esp": [], "depths": [], "plans": 0}
        rec = spans.Recorder() if self.traced else None
        for batch in self.pool:
            self.attempted += 1
            self.refs.append(reference_loop())
            try:
                result, spent = _timed(self._compile, batch)
            except QmpcError as exc:
                self.failed += 1
                self.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            self.compile_s.append(spent)
            self.compiled_circuits += len(batch)
            try:
                found = checks.check_batch(batch, result, self.env.edges, self.env.cnot_error, self.env.readout_error)
            except checks.CheckFailed as exc:
                self._wrong(str(exc))
                continue
            for job in self._equivalence_jobs(result):
                report, took = _timed(check_equivalence, *job)
                self.verify_s.append(took)
                spent += took
                if not report.passed:
                    self._wrong(f"check_equivalence failed with total variation {report.max_tv:.3g}")
            if rec is not None:
                self._traced_op(batch, rec, _digest(result), spent)
            digest.update(_digest(result).encode())
            quality["added"] += sum(c["added_cnots"] for c in found["circuits"].values())
            quality["log_esp"] += [c["log_esp"] for c in found["circuits"].values()]
            quality["depths"] += found["depths"]
            quality["plans"] += found["plans"]
        self.round_digests.append(digest.hexdigest())
        if self.quality is None:
            self.quality = quality
        if rec is not None:
            self.layer_rounds.append(rec)

    def _traced_op(self, batch, rec, want_digest: str, untraced_s: float) -> None:
        """The same operation again with every layer boundary wrapped."""
        gc.collect()
        patch = spans.install(rec)
        try:
            start = time.process_time()
            result = self._compile(batch, rec)
            for job in self._equivalence_jobs(result):
                with rec.span("verify.check_equivalence"):
                    check_equivalence(*job)
            self.traced_s += time.process_time() - start
        finally:
            patch.undo()
        self.untraced_s += untraced_s
        if _digest(result) != want_digest:
            self._wrong("tracing changed the emitted programs")

    def speed(self) -> float:
        """Factor that maps this run's times to the reference machine's."""
        return REF_NOMINAL_S / statistics.median(self.refs)

    def end_to_end_metrics(self) -> dict:
        q = self.quality
        circuits = len(q["log_esp"])
        k = self.speed()
        return {
            "compile_s.p50": {"value": k * statistics.median(self.compile_s), "unit": "s"},
            "circuits_per_s": {"value": self.compiled_circuits / (k * sum(self.compile_s)), "unit": "1/s"},
            "verify_s.p50": {"value": k * statistics.median(self.verify_s), "unit": "s"},
            "added_cnots_per_circuit": {"value": q["added"] / circuits, "unit": "count"},
            "esp.geomean": {"value": math.exp(statistics.fmean(q["log_esp"])), "unit": "ratio"},
            "depth.mean": {"value": statistics.fmean(q["depths"]), "unit": "layers"},
            "circuits_per_plan": {"value": circuits / q["plans"], "unit": "circuits"},
        }

    def layer_metrics(self) -> dict:
        rounds = len(self.layer_rounds)
        first = self.layer_rounds[0]
        k = self.speed()
        out = {}
        for name in LAYER_SECONDS:
            total = sum(rec.self_s.get(name, 0.0) for rec in self.layer_rounds)
            out[name + "_s"] = {"value": k * total / rounds, "unit": "s"}
        for name in LAYER_COUNTS:
            out[name] = {"value": first.counts.get(name, 0), "unit": "count"}
        inclusive = sum(self._compile_total(rec) for rec in self.layer_rounds) / rounds
        out["pipeline.compile_workloads_s"] = {"value": k * inclusive, "unit": "s"}
        overhead = 100.0 * (self.traced_s / self.untraced_s - 1.0)
        out["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        return out

    @staticmethod
    def _compile_total(rec) -> float:
        return sum(v for k, v in rec.self_s.items() if k not in OUTSIDE_COMPILE)

    def samples(self) -> dict:
        """Every measured time, unscaled, in the order taken."""
        return {"ref_loop_s": self.refs, "compile_s": self.compile_s, "verify_s": self.verify_s}

    def info(self) -> dict:
        refs = self.refs
        out = {
            "workload": self.env.spec.name,
            "seed": self.env.seed,
            "rounds": len(self.round_digests),
            "batches_per_round": len(self.pool),
            "digest": self.round_digests[0] if self.round_digests else None,
            "ref_loop_ms.p50": 1e3 * statistics.median(refs) if refs else None,
            "compile_raw_s.p50": statistics.median(self.compile_s) if self.compile_s else None,
            "verify_raw_s.p50": statistics.median(self.verify_s) if self.verify_s else None,
            "compile_samples": len(self.compile_s),
            "verify_samples": len(self.verify_s),
            "errors": self.errors[:5],
        }
        if self.layer_rounds:
            total = statistics.fmean(self._compile_total(rec) for rec in self.layer_rounds)
            shares = {
                name: statistics.fmean(rec.self_s.get(name, 0.0) for rec in self.layer_rounds) / total
                for name in sorted(self.layer_rounds[0].self_s)
                if name not in OUTSIDE_COMPILE
            }
            out["self_time_share_of_compile"] = shares
        return out


# spans the benchmark opens outside compile_workloads
OUTSIDE_COMPILE = {"circuits.parse_qasm", "verify.check_equivalence", "verify.simulate"}

LAYER_SECONDS = (
    "circuits.parse_qasm",
    "circuits.build_dag",
    "hardware.distance_matrices",
    "hardware.subgraph_diameter",
    "manager.plan_all",
    "partition.partition",
    "scheduler.initial_mapping",
    "scheduler.final_route",
    "scheduler.emit",
    "verify.simulate",
)

LAYER_COUNTS = (
    "hardware.distance_matrices_calls",
    "hardware.subgraph_diameter_calls",
    "manager.allocate_all_calls",
    "manager.plans",
    "partition.alone_calls",
    "partition.joint_calls",
    "partition.candidates",
    "partition.crosstalk_adjust_calls",
    "scheduler.trial_routes",
    "scheduler.routing_rounds",
    "scheduler.cost_h_calls",
    "scheduler.merged_circuit_calls",
    "scheduler.swaps",
    "scheduler.bridges",
    "verify.simulate_calls",
)
