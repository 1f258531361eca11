"""Command-line front end.

Exit codes: 0 success, 1 user error (bad input, infeasible request),
2 internal error.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

from .circuits import SIMULATION_QUBIT_CAP, SIMULATION_QUBIT_CAP_MAX, parse_merged_qasm, parse_qasm
from .config import RunConfig
from .errors import BRIEF, ConfigError, OutputDirError, QmpcError, brief, read_json, read_text
from .hardware import extract_strong_crosstalk, load_crosstalk, load_hardware
from .manager import plan_all
from .pipeline import compile_workloads


class _Parser(argparse.ArgumentParser):
    """A usage error is a user error (exit 1), not argparse's exit 2; a long
    value in its message is cut through ``errors.brief``, a short one kept;
    past ``BRIEF.maxlist`` unrecognized arguments, the rest are counted."""

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            rest = len(extras) - BRIEF.maxlist
            named = " ".join(extras[: BRIEF.maxlist]) + (f" ... ({rest} more)" if rest > 0 else "")
            self.error(f"unrecognized arguments: {named}")
        return args

    def error(self, message):
        # argparse echoes a value quoted (its repr) or bare
        echoed = r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\S+"""
        message = re.sub(echoed, lambda m: brief(m[0]) if len(m[0]) > BRIEF.maxstring else m[0], message)
        raise QmpcError(f"{self.prog}: {message}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", required=True, help="topology JSON file")
    parser.add_argument("--calibration", required=True, help="calibration JSON file")
    parser.add_argument("--crosstalk", help="conditional-error JSON file (optional)")
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
    parser.add_argument("--seed", type=int, default=RunConfig.seed, help="random seed for placements")
    parser.add_argument(
        "--swap-only", dest="swap_only", action="store_true", default=RunConfig.swap_only,
        help="disable bridged CNOTs",
    )
    parser.add_argument(
        "--no-self-cost", dest="self_cost", action="store_false", default=RunConfig.self_cost,
        help="ignore a repair gate's own CNOT cost",
    )


def _config(args) -> RunConfig:
    """The run's settings: every ``RunConfig`` field comes from the flag of
    the same name."""
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def _load_inputs(args):
    model = load_hardware(args.topology, args.calibration)
    strong = None
    if args.crosstalk:
        strong = extract_strong_crosstalk(load_crosstalk(args.crosstalk, model), model)
    return model, strong


def _load_circuits(paths):
    """Each file's circuit, with its stem as its id; a repeated stem takes
    the smallest ``stem#k`` (k >= 2) that no file stem and no earlier id holds."""
    stems = [Path(path).stem for path in paths]
    taken = set(stems)
    next_k: dict[str, int] = {}  # per stem seen, where its search for a free k resumes
    circuits = []
    for path, stem in zip(paths, stems):
        cid, k = stem, next_k.get(stem)
        if k is not None:
            while f"{stem}#{k}" in taken:
                k += 1
            cid = f"{stem}#{k}"
            taken.add(cid)
        next_k[stem] = 2 if k is None else k + 1
        circuits.append(parse_qasm(read_text(path), cid))
    return circuits


def _dump(obj) -> str:
    # strict JSON: a non-finite float here is a bug, not an output
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    config = _config(args)
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
            f"delta_s={compiled.plan.delta_s:.6f} additional_cnots={compiled.stats['total_additional_cnots']}"
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
    from .verify import check_equivalence  # only this command loads the simulator
    if not 1 <= args.cap <= SIMULATION_QUBIT_CAP_MAX:
        raise ConfigError(f"--cap must be in 1..{SIMULATION_QUBIT_CAP_MAX}, got {args.cap}")
    merged, _ = parse_merged_qasm(read_text(args.merged))
    manifest = read_json(args.manifest)
    sources = _load_circuits(args.sources)
    report = check_equivalence(sources, merged, manifest, cap=args.cap)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}, TV={report.max_tv:.3e}")
    for cid in sorted(report.per_circuit):
        print(f"  {cid}: TV={report.per_circuit[cid]:.3e}")
    return 0 if report.passed else 1


def cmd_xtalk_filter(args) -> int:
    _, strong = _load_inputs(args)  # --crosstalk is required here
    pairs = [
        {"gate": list(gate), "conditioned_on": list(cond), "error": err}
        for (gate, cond), err in sorted(strong.entries.items())
    ]
    sys.stdout.write(_dump({"pairs": pairs}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qmpc", description=__doc__)
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
    p_verify.add_argument(
        "--cap",
        type=int,
        default=SIMULATION_QUBIT_CAP,
        help=f"active-qubit cap per independent component, 1..{SIMULATION_QUBIT_CAP_MAX} (default %(default)s)",
    )
    p_verify.add_argument("sources", nargs="+")
    p_verify.set_defaults(func=cmd_verify)

    p_xtalk = sub.add_parser("xtalk-filter", help="keep only strong conditional-error pairs")
    p_xtalk.add_argument("--topology", required=True)
    p_xtalk.add_argument("--calibration", required=True)
    p_xtalk.add_argument("--crosstalk", required=True)
    p_xtalk.set_defaults(func=cmd_xtalk_filter)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except QmpcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure, including routing bugs
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
