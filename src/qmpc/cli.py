"""Command-line front end.

Exit codes: 0 success, 1 user error (bad input, infeasible request),
2 internal error.  ``QMPC_SEED`` overrides ``--seed`` when set; without
either, CI runs refuse to fall back to the wall clock.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from .circuits import parse_merged_qasm, parse_qasm
from .config import RunConfig
from .errors import ConfigError, OutputDirError, QmpcError, read_text
from .hardware import extract_strong_crosstalk, load_crosstalk, load_hardware
from .manager import plan_all
from .pipeline import compile_workloads
from .verify import check_equivalence


def _add_common(parser: argparse.ArgumentParser, with_compile_flags: bool = True) -> None:
    parser.add_argument("--topology", required=True, help="topology JSON file")
    parser.add_argument("--calibration", required=True, help="calibration JSON file")
    parser.add_argument("--crosstalk", help="conditional-error JSON file (optional)")
    if with_compile_flags:
        parser.add_argument("--method", choices=["gsp", "qhsp"], default=RunConfig.method)
        parser.add_argument("--lambda", dest="lam", type=float, default=RunConfig.lam, help="fidelity-degree weight")
        parser.add_argument(
            "--delta", type=float, default=RunConfig.delta, help="max mean score degradation for a shared run"
        )
        parser.add_argument(
            "--weight-w", dest="weight_w", type=float, default=RunConfig.weight_w, help="lookahead weight"
        )
        parser.add_argument("--alpha1", type=float, default=RunConfig.alpha1, help="hop-distance weight")
        parser.add_argument("--alpha2", type=float, default=RunConfig.alpha2, help="swap-error weight")
        parser.add_argument(
            "--ext-layer", dest="ext_layer", type=int, default=RunConfig.ext_layer, help="lookahead window size"
        )
        parser.add_argument("--attempts", type=int, default=RunConfig.attempts, help="random initial placements to try")
        parser.add_argument("--seed", type=int, default=None)
        parser.add_argument(
            "--swap-only", dest="swap_only", action="store_true", default=RunConfig.swap_only,
            help="disable bridged CNOTs",
        )
        parser.add_argument(
            "--no-self-cost", dest="self_cost", action="store_false", default=RunConfig.self_cost,
            help="ignore a repair gate's own CNOT cost",
        )


def _resolve_seed(args) -> int:
    env = os.environ.get("QMPC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"QMPC_SEED must be a non-negative integer, got {env!r}") from None
    if args.seed is not None:
        return args.seed
    if os.environ.get("CI"):
        raise QmpcError("no seed given: pass --seed or set QMPC_SEED (required under CI)")
    return int(time.time())


def _config(args, seed: int = 0) -> RunConfig:
    """The run's settings: every ``RunConfig`` field but the seed comes from
    the flag of the same name."""
    knobs = {f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name != "seed"}
    return RunConfig(seed=seed, **knobs)


def _load_inputs(args):
    model = load_hardware(args.topology, args.calibration)
    strong = None
    if args.crosstalk:
        strong = extract_strong_crosstalk(load_crosstalk(args.crosstalk, model), model)
    return model, strong


def _load_circuits(paths):
    circuits = []
    names: dict[str, int] = {}
    for path in paths:
        stem = Path(path).stem
        names[stem] = names.get(stem, 0) + 1
        cid = stem if names[stem] == 1 else f"{stem}#{names[stem]}"
        circuits.append(parse_qasm(read_text(path), cid))
    return circuits


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _out_dir(path: str) -> Path:
    """``path`` as a writable directory, made if missing."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputDirError(f"{path}: cannot create output directory: {exc.strerror or exc}") from None
    if not os.access(out_dir, os.W_OK | os.X_OK):
        raise OutputDirError(f"{path}: output directory is not writable")
    return out_dir


def cmd_compile(args) -> int:
    config = _config(args, _resolve_seed(args))
    model, strong = _load_inputs(args)
    circuits = _load_circuits(args.circuits)
    out_dir = _out_dir(args.out_dir)  # before the compile, so that a bad path fails fast
    result = compile_workloads(model, circuits, config, strong)
    summary = []
    for i, compiled in enumerate(result.plans):
        (out_dir / f"merged_{i}.qasm").write_text(compiled.qasm)
        (out_dir / f"manifest_{i}.json").write_text(_dump(compiled.manifest))
        (out_dir / f"stats_{i}.json").write_text(_dump(compiled.stats))
        summary.append(compiled.plan.to_json_dict())
        print(
            f"plan {i}: {compiled.plan.verdict_label()} circuits={list(compiled.plan.selected)} "
            f"delta_s={compiled.plan.delta_s:.6f} additional_cnots={compiled.schedule.additional_cnots()}"
        )
    (out_dir / "plans.json").write_text(_dump(summary))
    print(f"wrote {len(result.plans)} plan(s) to {out_dir}")
    return 0


def cmd_partition(args) -> int:
    config = _config(args)
    model, strong = _load_inputs(args)
    circuits = _load_circuits(args.circuits)
    plans = plan_all(model, circuits, config, strong)
    partitions = [p.to_json_dict() for plan in plans for p in plan.partitions]
    sys.stdout.write(_dump(partitions))
    return 0


def cmd_verify(args) -> int:
    merged, _ = parse_merged_qasm(read_text(args.merged))
    manifest = json.loads(read_text(args.manifest))
    sources = _load_circuits(args.sources)
    report = check_equivalence(sources, merged, manifest, cap=args.cap)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}, TV={report.max_tv:.3e}")
    for cid in sorted(report.per_circuit):
        print(f"  {cid}: TV={report.per_circuit[cid]:.3e}")
    return 0 if report.passed else 1


def cmd_xtalk_filter(args) -> int:
    model = load_hardware(args.topology, args.calibration)
    table = load_crosstalk(args.crosstalk, model)
    strong = extract_strong_crosstalk(table, model)
    pairs = [
        {"gate": list(gate), "conditioned_on": list(cond), "error": err}
        for (gate, cond), err in sorted(strong.entries.items())
    ]
    sys.stdout.write(_dump({"pairs": pairs}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmpc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile circuits into one merged program")
    _add_common(p_compile)
    p_compile.add_argument("--out-dir", dest="out_dir", default="qmpc_out")
    p_compile.add_argument("circuits", nargs="+", help="OpenQASM workload files")
    p_compile.set_defaults(func=cmd_compile)

    p_part = sub.add_parser("partition", help="print partitions without routing")
    _add_common(p_part)
    p_part.add_argument("circuits", nargs="+")
    p_part.set_defaults(func=cmd_partition)

    p_verify = sub.add_parser("verify", help="check a merged program against its sources")
    p_verify.add_argument("--merged", required=True)
    p_verify.add_argument("--manifest", required=True)
    p_verify.add_argument("--cap", type=int, default=12, help="active-qubit cap per independent component")
    p_verify.add_argument("sources", nargs="+")
    p_verify.set_defaults(func=cmd_verify)

    p_xtalk = sub.add_parser("xtalk-filter", help="keep only strong conditional-error pairs")
    p_xtalk.add_argument("--topology", required=True)
    p_xtalk.add_argument("--calibration", required=True)
    p_xtalk.add_argument("--crosstalk", required=True)
    p_xtalk.set_defaults(func=cmd_xtalk_filter)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QmpcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure, including routing bugs
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
