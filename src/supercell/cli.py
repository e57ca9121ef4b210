"""Operator-facing pipeline: every stage reads and writes files, so a chain
of subcommands is byte-equivalent to the in-process path.

Subcommands: decompose, gen-train, augment, train, integrate, baseline,
eval, ablate, gradcheck. All take --config (a JSON run config), --seed, and
--out; logs go to stderr, data only to files. Exit codes: 0 success,
1 usage/config error, 2 data error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

from . import assemble, baseline, core, evaluate, learner, mapping, perturb
from .canon import SynonymDictionary, UnknownDictionary
from .datasets import Fixture
from .ingest import (
    EmptyInput,
    MissingKeyColumn,
    NoRuleMatchedAnything,
    RaggedRow,
    RawTable,
    decompose,
    decompose_log,
)

# Each run-config key and the JSON type its value must have; the learner
# block is checked field by field against TrainConfig.
_CONFIG_TYPES = {
    "sources": list, "dictionaries": dict, "mapping_spec": str, "plan": str,
    "model": str, "out_dir": str, "learner": object, "seed": int,
}


class UsageError(ValueError):
    pass


class DataError(ValueError):
    """Stage inputs that contradict each other."""


DATA_ERRORS = (
    DataError, EmptyInput, RaggedRow, MissingKeyColumn, NoRuleMatchedAnything,
    UnknownDictionary, mapping.SpecViolation, mapping.KeyResolutionFailure,
    baseline.UncoverableAttribute, baseline.EmptyColumn, learner.EmptyEvalSet,
    learner.CellTooWide, core.MalformedRecord, core.UnknownKeyValue,
    FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError, re.error,
)


def log(message: str) -> None:
    print(message, file=sys.stderr)


def load_config(path: str, seed: int | None, out: str | None) -> dict:
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise UsageError(f"run config {path} must be a JSON object")
    unknown = set(config) - set(_CONFIG_TYPES)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        wanted = _CONFIG_TYPES[key]
        ok = isinstance(value, wanted) and not (wanted is int and isinstance(value, bool))
        if ok and key == "dictionaries":
            ok = all(isinstance(v, str) for v in value.values())
        if not ok:
            raise UsageError(f"config key {key!r} must be {wanted.__name__}, got {value!r}")
    base = Path(path).resolve().parent

    def resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    config["_resolve"] = resolve
    if seed is not None:
        config["seed"] = seed
    if out is not None:
        config["out_dir"] = out
    config.setdefault("seed", 0)
    config.setdefault("out_dir", "runs")
    config["_out"] = resolve(config["out_dir"])
    config["_model"] = resolve(config.get("model", config["_out"] / "model.npz"))
    return config


def _out_dir(config: dict) -> Path:
    config["_out"].mkdir(parents=True, exist_ok=True)
    return config["_out"]


def _dictionaries(config: dict) -> dict:
    out = {}
    for name, rel in config.get("dictionaries", {}).items():
        out[name] = SynonymDictionary.load(name, config["_resolve"](rel))
    return out


def _spec(config: dict) -> mapping.MappingSpec:
    if "mapping_spec" not in config:
        raise UsageError("config needs a 'mapping_spec' path")
    return mapping.MappingSpec.load(config["_resolve"](config["mapping_spec"]))


def _fixture(config: dict) -> Fixture:
    """The configured dictionaries and spec, and each configured source read
    once: its raw table or log text, and its decomposed corpus."""
    dictionaries = _dictionaries(config)
    fixture = Fixture(spec=_spec(config), dictionaries=dictionaries)
    by_id = {d.source_id: d for d in fixture.spec.sources}
    for entry in config.get("sources", []):
        if not isinstance(entry, dict) or not {"source_id", "path"} <= entry.keys():
            raise UsageError(f"sources entry {entry!r} needs 'source_id' and 'path'")
        desc = by_id.get(entry["source_id"])
        if desc is None:
            raise UsageError(f"source {entry['source_id']!r} not in mapping spec")
        path = config["_resolve"](entry["path"])
        if desc.format == "log_lines":
            text = fixture.logs[desc.source_id] = path.read_text(encoding="utf-8")
            cells = decompose_log(text.splitlines(), desc, dictionaries)
        else:
            table = fixture.tables[desc.source_id] = RawTable.read(path)
            cells = decompose(table, desc, dictionaries)
        fixture.corpora[desc.source_id] = cells
    return fixture


def _read_corpora(path: Path) -> dict[str, list[core.SuperCell]]:
    corpora: dict[str, list[core.SuperCell]] = {}
    for cell in core.read_jsonl(path, core.SuperCell):
        corpora.setdefault(cell.source_id, []).append(cell)
    return corpora


def cmd_decompose(config: dict) -> int:
    fixture = _fixture(config)
    out = _out_dir(config) / "supercells.jsonl"
    n = core.write_jsonl(fixture.all_cells(), out)
    log(f"decompose: {n} super cells -> {out}")
    return 0


def cmd_gen_train(config: dict) -> int:
    dictionaries = _dictionaries(config)
    spec = _spec(config)
    corpora = _read_corpora(_out_dir(config) / "supercells.jsonl")
    samples = mapping.generate_training_data(spec, corpora, dictionaries)
    out = _out_dir(config) / "samples.jsonl"
    core.write_jsonl(samples, out)
    log(f"gen-train: {len(samples)} samples -> {out}")
    return 0


def _record(cls, block, what: str):
    """``block`` read as the record ``cls`` (each key a field, each value of
    its field's JSON type, an int passing for a float); any mismatch or
    failed check is a usage error."""
    try:
        return cls.from_dict(block)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _plan(config: dict) -> perturb.PerturbationPlan:
    with open(config["_resolve"](config["plan"]), encoding="utf-8") as fh:
        return _record(perturb.PerturbationPlan, json.load(fh), "plan")


def cmd_augment(config: dict) -> int:
    dictionaries = _dictionaries(config)
    spec = _spec(config)
    out_dir = _out_dir(config)
    if "plan" not in config:
        raise UsageError("config needs a 'plan' path")
    plan = _plan(config)
    cells_path, samples_path = out_dir / "supercells.jsonl", out_dir / "samples.jsonl"
    cells = spec.cells(_read_corpora(cells_path))
    samples = core.read_jsonl(samples_path, mapping.LabeledSample)
    if len(cells) != len(samples):
        raise DataError(
            f"{cells_path} holds {len(cells)} super cells but {samples_path} holds "
            f"{len(samples)} samples; rerun gen-train"
        )
    plog = perturb.PerturbationLog()
    augmented = perturb.augment(
        samples, plan, dictionaries,
        corpus=cells,
        hierarchy=spec.key_hierarchy,
        parent_component=spec.parent_components(),
        log=plog,
    )
    out = out_dir / "augmented.jsonl"
    core.write_jsonl(augmented, out)
    plog.dump(out_dir / "perturb_log.jsonl")
    log(f"augment: {len(samples)} -> {len(augmented)} samples -> {out}")
    return 0


def _train_config(config: dict) -> learner.TrainConfig:
    read = _record(learner.TrainConfig, config.get("learner", {}), "learner config")
    return dataclasses.replace(read, seed=config["seed"])


def cmd_train(config: dict) -> int:
    dictionaries = _dictionaries(config)
    spec = _spec(config)
    out_dir = _out_dir(config)
    samples_path = out_dir / "augmented.jsonl"
    if not samples_path.exists():
        samples_path = out_dir / "samples.jsonl"
    samples = core.read_jsonl(samples_path, mapping.LabeledSample)
    params, curve = evaluate.train_from_spec(samples, _train_config(config), spec, dictionaries)
    params.save(config["_model"])
    (out_dir / "loss_curve.csv").write_text(learner.loss_curve_csv(curve), encoding="utf-8")
    log(f"train: {len(samples)} samples, final loss {curve[-1].loss:.4f}, "
        f"train acc {curve[-1].train_acc:.4f} -> {config['_model']}")
    return 0


def cmd_integrate(config: dict) -> int:
    out_dir = _out_dir(config)
    params = learner.ModelParams.load(config["_model"])
    spec = _spec(config)
    if params.schema != spec.target:
        raise UsageError(f"model {config['_model']} was trained for a different target schema")
    cells = spec.cells(_read_corpora(out_dir / "supercells.jsonl"))
    timings = core.Timings()
    with timings.block("integrate_s"):
        table = learner.integrate_predictions(cells, params)
        path, report = assemble.finalize_and_write(table, out_dir / "target.csv")
    core.write_json(report.to_dict(), out_dir / "assembly_report.json")
    timings.write(out_dir)
    log(f"integrate: {report.cells_written} cells "
        f"({report.cells_skipped} skipped) -> {path}")
    return 0


def cmd_baseline(config: dict) -> int:
    fixture = _fixture(config)
    spec, out_dir = fixture.spec, _out_dir(config)
    store = baseline.sign_columns(fixture.tables)
    baseline.save_signatures(store, out_dir / "signatures.bin")
    oracle = mapping.oracle_integrate(spec, fixture.corpora, fixture.dictionaries)
    matches = baseline.match_signatures(store, evaluate.target_example_from_oracle(oracle))
    core.write_json(
        {
            "best": {a: [m.source_id, m.column, round(m.score, 4)]
                     for a, m in sorted(matches.best.items())},
            "unmatched": sorted(matches.unmatched),
        },
        out_dir / "matches.json",
    )
    try:
        table = baseline.baseline_integrate(
            matches, fixture.tables, spec.target, spec.key_kinds(), fixture.dictionaries
        )
        assemble.finalize_and_write(table, out_dir / "baseline.csv")
        log(f"baseline: wrote {out_dir / 'baseline.csv'}")
    except baseline.UncoverableAttribute as exc:
        log(f"baseline: integration failed (uncoverable: {exc})")
    return 0


def cmd_eval(config: dict) -> int:
    fixture = _fixture(config)
    params = learner.ModelParams.load(config["_model"])
    report = evaluate.compare_baseline(
        fixture, params, _out_dir(config) / "eval", model_path=config["_model"]
    )
    log(f"eval: learner clean agreement {report['learner_clean_agreement']}")
    return 0


def cmd_ablate(config: dict) -> int:
    fixture = _fixture(config)
    seed = config["seed"]
    train_plan = (
        _plan(config) if config.get("plan")
        else perturb.PerturbationPlan(seed=seed, synonym_dict=None)
    )
    ablation = evaluate.AblationConfig(
        variants=evaluate.default_variants(seed + 9001),
        with_augmentation=True,
        train_plan=train_plan,
        seed=seed,
    )
    out_dir = _out_dir(config) / "ablation"
    rows = evaluate.run_ablation(_train_config(config), fixture, ablation, out_dir)
    for row in rows:
        log(f"ablate: {row['variant']}: {row['accuracy']}")
    return 0


def cmd_gradcheck(config: dict | None) -> int:
    worst = 0.0
    for encoder in ("pooled", "recurrent"):
        err = learner.gradient_check(encoder, seed=0)
        log(f"gradcheck: {encoder}: max relative error {err:.2e}")
        worst = max(worst, err)
    return 0 if worst < 1e-3 else 3


_COMMANDS = {
    "decompose": cmd_decompose,
    "gen-train": cmd_gen_train,
    "augment": cmd_augment,
    "train": cmd_train,
    "integrate": cmd_integrate,
    "baseline": cmd_baseline,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercell",
        description="Schema-change-tolerant data integration pipeline",
    )
    sub = parser.add_subparsers(dest="command")
    for name in list(_COMMANDS) + ["gradcheck"]:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=name != "gradcheck")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck(None)
        config = load_config(args.config, args.seed, args.out)
        return _COMMANDS[args.command](config)
    except UsageError as exc:
        log(f"usage error: {exc}")
        return 1
    except DATA_ERRORS as exc:
        log(f"data error: {type(exc).__name__}: {exc}")
        return 2
    except Exception as exc:  # invariant violations and bugs
        log(f"internal error: {type(exc).__name__}: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
