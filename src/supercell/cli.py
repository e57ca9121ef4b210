"""Operator-facing pipeline: every stage reads and writes files, so a chain
of subcommands is byte-equivalent to the in-process path.

Subcommands: decompose, gen-train, augment, train, integrate, baseline,
eval, ablate, gradcheck. All take --config (a JSON run config), --seed, and
--out; logs go to stderr, data only to files. Exit codes: 0 success,
1 usage/config error, 2 data error (a ``core.DataError``), 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import assemble, baseline, core, evaluate, learner, mapping, perturb
from .canon import SynonymDictionary
from .datasets import Fixture
from .ingest import RawTable, decompose, decompose_log


class UsageError(ValueError):
    pass


def log(message: str) -> None:
    print(message, file=sys.stderr)


@dataclasses.dataclass(frozen=True)
class Source(core.Record):
    """One ``sources`` entry: a source of the mapping spec and its file."""

    source_id: str
    path: Path


@dataclasses.dataclass(frozen=True)
class RunConfig(core.Record):
    """A run config file. ``load_config`` makes every path absolute; the
    ``learner`` block is read as a ``TrainConfig`` by the stage that trains."""

    sources: tuple[Source, ...] = ()
    dictionaries: dict[str, Path] = dataclasses.field(default_factory=dict)
    mapping_spec: Path | None = None
    plan: Path | None = None
    model: Path | None = None
    out_dir: Path = Path("runs")
    learner: dict[str, object] = dataclasses.field(default_factory=dict)
    seed: int = 0
    # The file ``load_config`` read, named in the errors of the ``learner``
    # block; not a key of the file.
    path: Path | None = dataclasses.field(default=None, init=False, compare=False)


def _record(cls, block, what: str):
    """``block`` read as the record ``cls`` (each key a field, each value of
    its field's JSON type, an int passing for a float); any mismatch or
    failed check is a usage error."""
    try:
        return cls.from_dict(block)
    except (KeyError, TypeError, ValueError) as exc:
        # A KeyError's str() quotes its message.
        raise UsageError(f"{what}: {exc.args[0] if exc.args else exc}") from exc


def load_config(path: str, seed: int | None, out: str | None) -> RunConfig:
    """The run config at ``path`` with ``--seed`` and ``--out`` applied, each
    relative path (``--out`` too) taken from the config file's directory. A
    file that does not parse is a data error, one of the wrong shape a usage error."""
    config = _record(RunConfig, core.read_json(path, object), f"run config {path}")
    base = Path(path).resolve().parent
    out_dir = base / (out if out is not None else config.out_dir)
    config = dataclasses.replace(
        config,
        sources=tuple(dataclasses.replace(s, path=base / s.path) for s in config.sources),
        dictionaries={name: base / p for name, p in config.dictionaries.items()},
        mapping_spec=config.mapping_spec and base / config.mapping_spec,
        plan=config.plan and base / config.plan,
        model=base / (config.model or out_dir / "model.npz"),
        out_dir=out_dir,
        seed=config.seed if seed is None else seed,
    )
    object.__setattr__(config, "path", Path(path))
    return config


def _out_dir(config: RunConfig) -> Path:
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise UsageError(f"out_dir {config.out_dir} is not a directory") from exc
    return config.out_dir


def _dictionaries(config: RunConfig) -> dict:
    return {name: SynonymDictionary.load(name, p) for name, p in config.dictionaries.items()}


def _spec(config: RunConfig) -> mapping.MappingSpec:
    if config.mapping_spec is None:
        raise UsageError("config needs a 'mapping_spec' path")
    return mapping.MappingSpec.load(config.mapping_spec)


def _fixture(config: RunConfig) -> Fixture:
    """The configured dictionaries and spec, and each configured source read
    once: its raw table or log text, and its decomposed corpus."""
    dictionaries = _dictionaries(config)
    fixture = Fixture(spec=_spec(config), dictionaries=dictionaries)
    by_id = {d.source_id: d for d in fixture.spec.sources}
    for entry in config.sources:
        desc = by_id.get(entry.source_id)
        if desc is None:
            raise UsageError(f"source {entry.source_id!r} not in mapping spec")
        if desc.format == "log_lines":
            text = fixture.logs[desc.source_id] = core.read_text(entry.path)
            cells = decompose_log(text.splitlines(), desc, dictionaries)
        else:
            table = fixture.tables[desc.source_id] = RawTable.read(entry.path)
            cells = decompose(table, desc, dictionaries)
        fixture.corpora[desc.source_id] = cells
    return fixture


def _read_corpora(path: Path) -> dict[str, list[core.SuperCell]]:
    corpora: dict[str, list[core.SuperCell]] = {}
    for cell in core.read_jsonl(path, core.SuperCell):
        corpora.setdefault(cell.source_id, []).append(cell)
    return corpora


def cmd_decompose(config: RunConfig) -> int:
    fixture = _fixture(config)
    out = _out_dir(config) / "supercells.jsonl"
    n = core.write_jsonl(fixture.all_cells(), out)
    log(f"decompose: {n} super cells -> {out}")
    return 0


def cmd_gen_train(config: RunConfig) -> int:
    dictionaries = _dictionaries(config)
    spec = _spec(config)
    corpora = _read_corpora(_out_dir(config) / "supercells.jsonl")
    samples = mapping.generate_training_data(spec, corpora, dictionaries)
    out = _out_dir(config) / "samples.jsonl"
    core.write_jsonl(samples, out)
    log(f"gen-train: {len(samples)} samples -> {out}")
    return 0


def _plan(config: RunConfig) -> perturb.PerturbationPlan:
    plan = _record(perturb.PerturbationPlan, core.read_json(config.plan, object),
                   f"plan {config.plan}")
    if plan.synonym_dict and plan.synonym_dict not in config.dictionaries:
        raise UsageError(f"plan {config.plan} names synonym_dict {plan.synonym_dict!r}, "
                         "which the run config does not load")
    return plan


def cmd_augment(config: RunConfig) -> int:
    dictionaries = _dictionaries(config)
    spec = _spec(config)
    out_dir = _out_dir(config)
    if config.plan is None:
        raise UsageError("config needs a 'plan' path")
    plan = _plan(config)
    cells_path, samples_path = out_dir / "supercells.jsonl", out_dir / "samples.jsonl"
    cells = spec.cells(_read_corpora(cells_path))
    paired = iter(cells)

    def check(sample: mapping.LabeledSample) -> None:
        # Samples pair with cells by position, so each must be its cell's.
        cell = next(paired, None)
        if cell is not None and (sample.origin != (cell.source_id, cell.row_ordinal)
                                 or sample.feature != core.render_feature(cell)):
            raise core.DataError(
                f"not the sample of the super cell at this position in {cells_path} "
                f"({cell.source_id!r}, row {cell.row_ordinal}); rerun gen-train"
            )

    samples = core.read_jsonl(samples_path, mapping.LabeledSample, check)
    if len(cells) != len(samples):
        raise core.DataError(
            f"{cells_path} holds {len(cells)} super cells but {samples_path} holds "
            f"{len(samples)} samples; rerun gen-train"
        )
    plog: list[perturb.LogEntry] = []
    augmented = perturb.augment(
        samples, plan, dictionaries,
        corpus=cells,
        hierarchy=spec.key_hierarchy,
        parent_component=spec.parent_components(),
        log=plog,
    )
    out = out_dir / "augmented.jsonl"
    core.write_jsonl(augmented, out)
    core.write_jsonl(plog, out_dir / "perturb_log.jsonl")
    log(f"augment: {len(samples)} -> {len(augmented)} samples -> {out}")
    return 0


def _train_config(config: RunConfig) -> learner.TrainConfig:
    read = _record(learner.TrainConfig, config.learner, f"run config {config.path}: learner")
    return dataclasses.replace(read, seed=config.seed)


def cmd_train(config: RunConfig) -> int:
    dictionaries = _dictionaries(config)
    spec = _spec(config)
    out_dir = _out_dir(config)
    samples_path = out_dir / "augmented.jsonl"
    if not samples_path.exists():
        samples_path = out_dir / "samples.jsonl"
    train_config = _train_config(config)
    space = core.LabelSpace(spec.target, train_config.max_copy, train_config.max_width)

    def check(sample: mapping.LabeledSample) -> None:
        # A label wider than max_width is left to train, which counts them all.
        if len(sample.label.attributes) <= space.max_width:
            space.render(sample.label)

    samples = core.read_jsonl(samples_path, mapping.LabeledSample, check)
    params, curve = evaluate.train_from_spec(samples, train_config, spec, dictionaries)
    params.save(config.model)
    rows = ([p.epoch, f"{p.loss:.6f}", f"{p.train_acc:.6f}"] for p in curve)
    core.write_csv(["epoch", "loss", "train_acc"], rows, out_dir / "loss_curve.csv")
    log(f"train: {len(samples)} samples, final loss {curve[-1].loss:.4f}, "
        f"train acc {curve[-1].train_acc:.4f} -> {config.model}")
    return 0


def cmd_integrate(config: RunConfig) -> int:
    out_dir = _out_dir(config)
    params = learner.ModelParams.load(config.model)
    spec = _spec(config)
    if params.schema != spec.target:
        raise UsageError(f"model {config.model} was trained for a different target schema")
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


def cmd_baseline(config: RunConfig) -> int:
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


def cmd_eval(config: RunConfig) -> int:
    fixture = _fixture(config)
    params = learner.ModelParams.load(config.model)
    report = evaluate.compare_baseline(
        fixture, params, _out_dir(config) / "eval", model_path=config.model
    )
    log(f"eval: learner clean agreement {report['learner_clean_agreement']}")
    return 0


def cmd_ablate(config: RunConfig) -> int:
    fixture = _fixture(config)
    train_plan = _plan(config) if config.plan else None
    variants = evaluate.default_variants(
        config.seed + 9001, train_plan.synonym_dict if train_plan else None
    )
    if fixture.spec.key_hierarchy is None:
        for variant in variants:
            if variant.plan.key_expansion_rate > 0:
                log(f"ablate: left out {variant.name}: the spec has no key hierarchy")
        variants = [v for v in variants if v.plan.key_expansion_rate == 0]
    ablation = evaluate.AblationConfig(variants=variants, train_plan=train_plan)
    out_dir = _out_dir(config) / "ablation"
    rows = evaluate.run_ablation(_train_config(config), fixture, ablation, out_dir)
    for row in rows:
        log(f"ablate: {row['variant']}: {row['accuracy']}")
    return 0


def cmd_gradcheck() -> int:
    err = learner.gradient_check(seed=0)
    log(f"gradcheck: max relative error {err:.2e}")
    return 0 if err < 1e-3 else 3


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
            return cmd_gradcheck()
        config = load_config(args.config, args.seed, args.out)
        return _COMMANDS[args.command](config)
    except UsageError as exc:
        log(f"usage error: {exc}")
        return 1
    except core.DataError as exc:
        log(f"data error: {type(exc).__name__}: {exc}")
        return 2
    except Exception as exc:  # invariant violations and bugs
        log(f"internal error: {type(exc).__name__}: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
