"""CLI pipeline: stage outputs, exit codes, file-path/in-process parity."""

import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import supercell
from supercell import cli
from supercell.assemble import finalize_and_write
from supercell.core import DataError, SuperCell, read_jsonl, write_jsonl
from supercell.datasets import build_covid_fixture, build_log_fixture, write_fixture_files
from supercell.evaluate import default_variants
from supercell.learner import (
    ModelParams, TrainConfig, init_params, integrate_predictions, train,
)
from supercell.mapping import generate_training_data
from supercell.perturb import LogEntry, PerturbationPlan, augment

from conftest import desk_train_config


LEARNER_CONFIG = dict(
    encoder="recurrent", embed_dim=16, hidden=24, bucket_count=512,
    epochs=32, batch_size=64, seed=11, learning_rate=3e-3,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    fixture = build_covid_fixture(seed=31, n_dates=3, n_states=6)
    paths = write_fixture_files(fixture, root)
    plan = PerturbationPlan(
        seed=11, attr_rename_rate=0.5, char_noise_rate=0.05,
        value_reformat_rate=0.3, key_expansion_rate=0.1,
        add_remove_noise_columns=8, synonym_dict="covid_synonyms",
    )
    with open(root / "plan.json", "w") as fh:
        json.dump(plan.to_dict(), fh)
    config = {
        "sources": [
            {"source_id": "covid", "path": "covid.csv"},
            {"source_id": "mobility", "path": "mobility.csv"},
        ],
        "dictionaries": {
            "covid_synonyms": "covid_synonyms.json",
            "us_states": "us_states.json",
        },
        "mapping_spec": "mapping_spec.json",
        "plan": "plan.json",
        "model": "model.npz",
        "out_dir": "out",
        "learner": LEARNER_CONFIG,
        "seed": 11,
    }
    config_path = root / "config.json"
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    return {"root": root, "fixture": fixture, "plan": plan,
            "config_path": str(config_path)}


def run(args):
    return cli.main(args)


def integrate_config(workspace, tmp_path, spec=None):
    """Config for `integrate` alone: an untrained model of the workspace
    spec's target and the fixture's cells, written under ``tmp_path``."""
    root, fixture = workspace["root"], workspace["fixture"]
    model = tmp_path / "model.npz"
    config = TrainConfig(embed_dim=4, hidden=4, bucket_count=64, seed=5)
    init_params(config, fixture.spec.target).save(model)
    write_jsonl(fixture.all_cells(), tmp_path / "supercells.jsonl")
    path = tmp_path / "integrate.json"
    path.write_text(json.dumps({
        "mapping_spec": str(spec or root / "mapping_spec.json"),
        "model": str(model),
        "out_dir": str(tmp_path),
    }))
    return str(path)


def workspace_config(workspace, tmp_path, **overrides):
    """The workspace config with every path absolute and output under
    ``tmp_path``, written to ``tmp_path``; returns its path."""
    root = workspace["root"]
    config = json.loads(Path(workspace["config_path"]).read_text())
    config.update(
        sources=[{**e, "path": str(root / e["path"])} for e in config["sources"]],
        dictionaries={k: str(root / v) for k, v in config["dictionaries"].items()},
        mapping_spec=str(root / config["mapping_spec"]), out_dir=str(tmp_path),
    )
    config.update(overrides)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    return str(path)


def fixture_workspace(fixture, root, **overrides):
    """``fixture``'s files under ``root`` and a run config ``c.json`` that
    names them (plan ``plan.json``, output under ``out``); returns its path."""
    write_fixture_files(fixture, root)
    (root / "c.json").write_text(json.dumps({
        "sources": [{"source_id": s, "path": f"{s}.csv"} for s in fixture.tables]
        + [{"source_id": s, "path": f"{s}.log"} for s in fixture.logs],
        "dictionaries": {d: f"{d}.json" for d in fixture.dictionaries},
        "mapping_spec": "mapping_spec.json", "plan": "plan.json", "out_dir": "out",
        **overrides,
    }))
    return str(root / "c.json")


def augment_config(workspace, tmp_path, edit):
    """Config for `augment` alone: the workspace's cells and samples, and
    its spec changed by ``edit``, written under ``tmp_path``."""
    root, fixture = workspace["root"], workspace["fixture"]
    spec = json.loads((root / "mapping_spec.json").read_text())
    edit(spec)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    write_jsonl(fixture.all_cells(), tmp_path / "supercells.jsonl")
    samples = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
    (tmp_path / "samples.jsonl").write_text("".join(s.to_json() + "\n" for s in samples))
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "dictionaries": {"covid_synonyms": str(root / "covid_synonyms.json")},
        "mapping_spec": str(tmp_path / "spec.json"),
        "plan": str(root / "plan.json"),
        "out_dir": str(tmp_path),
    }))
    return str(path)


class TestPipeline:
    def test_full_chain_matches_in_process(self, workspace):
        config = workspace["config_path"]
        root = workspace["root"]
        fixture = workspace["fixture"]
        plan = workspace["plan"]

        assert run(["decompose", "--config", config]) == 0
        cli_cells = read_jsonl(root / "out" / "supercells.jsonl", SuperCell)
        expected_cells = fixture.all_cells()
        assert cli_cells == expected_cells

        assert run(["gen-train", "--config", config]) == 0
        assert run(["augment", "--config", config]) == 0
        assert run(["train", "--config", config]) == 0
        assert run(["integrate", "--config", config]) == 0

        target_csv = (root / "out" / "target.csv").read_bytes()

        # In-process path with identical inputs and seeds.
        samples = generate_training_data(fixture.spec, fixture.corpora,
                                         fixture.dictionaries)
        augmented = augment(
            samples, plan, fixture.dictionaries,
            corpus=expected_cells,
            hierarchy=fixture.spec.key_hierarchy,
            parent_component=fixture.spec.parent_components() or None,
        )
        kinds = fixture.spec.key_kinds()
        key_kinds = [kinds[a] for a in fixture.spec.target.key_attributes]
        config_obj = desk_train_config(**LEARNER_CONFIG)
        params, _ = train(
            augmented, config_obj, fixture.spec.target, key_kinds,
            {n: d.groups for n, d in fixture.dictionaries.items()},
        )
        table = integrate_predictions(expected_cells, params)
        path, _ = finalize_and_write(table, root / "in_process.csv")
        assert path.read_bytes() == target_csv

    def test_perturb_log_is_the_augment_log(self, workspace, tmp_path):
        config = workspace_config(workspace, tmp_path, plan=str(workspace["root"] / "plan.json"))
        for stage in ("decompose", "gen-train", "augment"):
            assert run([stage, "--config", config]) == 0
        fixture = workspace["fixture"]
        log = []
        augment(
            generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries),
            workspace["plan"], fixture.dictionaries, corpus=fixture.all_cells(),
            hierarchy=fixture.spec.key_hierarchy,
            parent_component=fixture.spec.parent_components() or None, log=log,
        )
        assert log and read_jsonl(tmp_path / "perturb_log.jsonl", LogEntry) == log
        # One JSON object per line, as json.dumps writes it.
        assert (tmp_path / "perturb_log.jsonl").read_text(encoding="utf-8") == "".join(
            json.dumps({"sample_id": e.sample_id, "ops_applied": e.ops_applied}) + "\n"
            for e in log
        )

    def test_integrate_matches_oracle_exactly(self, workspace):
        from supercell.mapping import oracle_integrate

        root = workspace["root"]
        fixture = workspace["fixture"]
        oracle = oracle_integrate(fixture.spec, fixture.corpora, fixture.dictionaries)
        target = (root / "out" / "target.csv").read_text()
        assert target == oracle.to_csv()

    def test_baseline_subcommand(self, workspace):
        config = workspace["config_path"]
        root = workspace["root"]
        assert run(["baseline", "--config", config]) == 0
        assert (root / "out" / "matches.json").exists()
        assert (root / "out" / "signatures.bin").exists()
        matches = json.loads((root / "out" / "matches.json").read_text())
        assert "date" in matches["best"]

    def test_baseline_signs_each_column_once(self, workspace, monkeypatch):
        from supercell import baseline
        from supercell.mapping import oracle_integrate

        fixture = workspace["fixture"]
        signed = []
        minhash = baseline._minhash

        def counted(shingle_sets, L):
            signed.extend(shingle_sets)
            return minhash(shingle_sets, L)

        monkeypatch.setattr(baseline, "_minhash", counted)
        assert run(["baseline", "--config", workspace["config_path"]]) == 0
        oracle = oracle_integrate(fixture.spec, fixture.corpora, fixture.dictionaries)
        n_columns = sum(len(t.header) for t in fixture.tables.values())
        assert len(signed) == n_columns + len(oracle.header())
        store = baseline.load_signatures(workspace["root"] / "out" / "signatures.bin")
        assert store == baseline.sign_columns(fixture.tables)

    def test_eval_subcommand(self, workspace):
        config = workspace["config_path"]
        root = workspace["root"]
        assert run(["eval", "--config", config]) == 0
        report = json.loads((root / "out" / "eval" / "comparison.json").read_text())
        assert "learner_clean_agreement" in report
        assert "baseline_pivoted_unmatched" in report

    def test_ablate_subcommand(self, workspace):
        config = workspace["config_path"]
        root = workspace["root"]
        assert run(["ablate", "--config", config]) == 0
        runs = list((root / "out" / "ablation").iterdir())
        assert runs
        assert (runs[0] / "ablation.csv").exists()

    def test_gradcheck_subcommand(self):
        assert run(["gradcheck"]) == 0


class TestIntegrateOutputs:
    def test_assembly_report_is_deterministic(self, workspace, tmp_path):
        config = integrate_config(workspace, tmp_path)
        assert run(["integrate", "--config", config]) == 0
        first = (tmp_path / "assembly_report.json").read_bytes()
        assert run(["integrate", "--config", config]) == 0
        assert (tmp_path / "assembly_report.json").read_bytes() == first
        assert set(json.loads(first)) == {"cells_written", "cells_skipped"}

    def test_timings_written_separately(self, workspace, tmp_path):
        config = integrate_config(workspace, tmp_path)
        assert run(["integrate", "--config", config]) == 0
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert set(timings) == {"integrate_s"}
        assert timings["integrate_s"] >= 0


class TestExitCodes:
    def test_missing_config_is_usage_error(self):
        assert run(["decompose"]) == 1

    def test_no_subcommand_is_usage_error(self):
        assert run([]) == 1

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mapping_spec": "x.json", "bogus": 1}))
        assert run(["decompose", "--config", str(path)]) == 1

    def test_unknown_learner_key_is_usage_error(self, workspace, tmp_path, capsys):
        (tmp_path / "samples.jsonl").write_text("")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "mapping_spec": str(workspace["root"] / "mapping_spec.json"),
            "out_dir": str(tmp_path),
            "learner": {"epochz": 1},
        }))
        assert run(["train", "--config", str(path)]) == 1
        assert "epochz" in capsys.readouterr().err

    def learner_config(self, workspace, tmp_path, block):
        fixture = workspace["fixture"]
        samples = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        (tmp_path / "samples.jsonl").write_text(
            "".join(s.to_json() + "\n" for s in samples[:4])
        )
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "mapping_spec": str(workspace["root"] / "mapping_spec.json"),
            "out_dir": str(tmp_path),
            "learner": block,
        }))
        return str(path)

    @pytest.mark.parametrize("block", [
        {"epochs": "2"}, {"epochs": True}, {"learning_rate": "0.01"}, {"encoder": 1},
    ])
    def test_wrongly_typed_learner_value_is_usage_error(self, workspace, tmp_path,
                                                        capsys, block):
        assert run(["train", "--config", self.learner_config(workspace, tmp_path, block)]) == 1
        assert repr(next(iter(block))) in capsys.readouterr().err

    @pytest.mark.parametrize("block", [
        {"encoder": "lstm"}, {"epochs": 0}, {"batch_size": 0}, {"encoder": "pooled"},
    ])
    def test_out_of_range_learner_value_is_usage_error(self, workspace, tmp_path,
                                                       capsys, block):
        path = self.learner_config(workspace, tmp_path, block)
        assert run(["train", "--config", path]) == 1
        assert f"usage error: run config {path}: learner: " in capsys.readouterr().err

    def test_learner_error_names_the_run_config(self, workspace, tmp_path, capsys):
        path = self.learner_config(workspace, tmp_path, {"epochs": 0})
        assert run(["train", "--config", path]) == 1
        assert capsys.readouterr().err == (
            f"usage error: run config {path}: learner: epochs must be at least 1, got 0\n")

    @pytest.mark.parametrize("key, value", [("out_dir", 5), ("dictionaries", ["x"])])
    def test_wrongly_typed_config_value_is_usage_error(self, workspace, tmp_path,
                                                       capsys, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "mapping_spec": str(workspace["root"] / "mapping_spec.json"),
            "out_dir": str(tmp_path),
            key: value,
        }))
        assert run(["decompose", "--config", str(path)]) == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key, raw", [("learning_rate", "1e400"), ("max_copy", "-1")])
    def test_learner_value_that_fails_the_fit_is_usage_error(self, workspace, tmp_path,
                                                             capsys, key, raw):
        # 1e400 parses as inf, which no fit survives, and a negative max_copy
        # leaves the samples' COPY labels no class: the run config is at fault.
        path = Path(self.learner_config(workspace, tmp_path, {key: "RAW"}))
        path.write_text(path.read_text().replace('"RAW"', raw))
        assert run(["train", "--config", str(path)]) == 1
        assert f"usage error: run config {path}: learner: {key} must be" in (
            capsys.readouterr().err)

    def test_int_learner_value_passes_for_float(self, workspace, tmp_path):
        block = {"learning_rate": 1, "epochs": 1, "embed_dim": 4, "hidden": 4,
                 "bucket_count": 64}
        assert run(["train", "--config", self.learner_config(workspace, tmp_path, block)]) == 0

    def test_int_value_is_stored_as_float(self):
        # Two plans that mean the same must serialize (and hash) the same.
        plan = PerturbationPlan.from_dict({"seed": 1, "attr_rename_rate": 1})
        assert json.dumps(plan.to_dict()) == json.dumps(
            PerturbationPlan(seed=1, attr_rename_rate=1.0).to_dict())
        assert type(plan.attr_rename_rate) is float and type(plan.seed) is int

    @pytest.mark.parametrize("command", ["augment", "ablate"])
    @pytest.mark.parametrize("key", ["pivot_enabled", "rename_rate"])
    def test_unknown_plan_key_is_usage_error(self, workspace, tmp_path, capsys, command, key):
        (tmp_path / "plan.json").write_text(json.dumps({"seed": 1, key: True}))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "mapping_spec": str(workspace["root"] / "mapping_spec.json"),
            "plan": "plan.json",
            "out_dir": str(tmp_path),
        }))
        assert run([command, "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("plan, message", [
        ({"seed": 1, "rename_rate": 0.5}, "unknown PerturbationPlan field 'rename_rate'"),
        ({"attr_rename_rate": 2.0}, "attr_rename_rate must be in [0, 1], got 2.0"),
    ])
    def test_plan_error_names_the_plan_file(self, workspace, tmp_path, capsys, plan, message):
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        path = workspace_config(workspace, tmp_path, plan=str(tmp_path / "plan.json"))
        assert run(["augment", "--config", path]) == 1
        assert capsys.readouterr().err == f"usage error: plan {tmp_path / 'plan.json'}: {message}\n"

    @pytest.mark.parametrize("command", ["augment", "ablate"])
    def test_plan_dictionary_the_config_does_not_load_is_usage_error(
            self, workspace, tmp_path, capsys, command):
        (tmp_path / "plan.json").write_text(json.dumps(
            {"seed": 1, "attr_rename_rate": 0.5, "synonym_dict": "no_such_dict"}))
        path = workspace_config(workspace, tmp_path, plan=str(tmp_path / "plan.json"))
        assert run([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert f"usage error: plan {tmp_path / 'plan.json'} names synonym_dict 'no_such_dict'" in err
        assert not (tmp_path / "augmented.jsonl").exists()
        assert not (tmp_path / "ablation").exists()

    def test_cells_and_samples_mismatch_is_data_error(self, workspace, tmp_path, capsys):
        root, fixture = workspace["root"], workspace["fixture"]
        write_jsonl(fixture.all_cells(), tmp_path / "supercells.jsonl")
        samples = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        (tmp_path / "samples.jsonl").write_text(
            "".join(s.to_json() + "\n" for s in samples[:-1])
        )
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "dictionaries": {"covid_synonyms": str(root / "covid_synonyms.json")},
            "mapping_spec": str(root / "mapping_spec.json"),
            "plan": str(root / "plan.json"),
            "out_dir": str(tmp_path),
        }))
        assert run(["augment", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "supercells.jsonl" in err and "samples.jsonl" in err
        assert not (tmp_path / "augmented.jsonl").exists()

    def test_samples_of_other_cells_are_data_error(self, workspace, tmp_path, capsys):
        # As many samples as cells, but generated from another seed's fixture:
        # pairing them by position would give each copy another cell's label.
        path = augment_config(workspace, tmp_path, lambda spec: None)
        other = build_covid_fixture(seed=32, n_dates=3, n_states=6)
        assert len(other.all_cells()) == len(workspace["fixture"].all_cells())
        write_jsonl(other.all_cells(), tmp_path / "supercells.jsonl")
        assert run(["augment", "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'samples.jsonl'}:1: " in err and "rerun gen-train" in err
        assert not (tmp_path / "augmented.jsonl").exists()

    def test_samples_keep_their_cells_order(self, workspace, tmp_path, capsys):
        # Two swapped samples each carry the other cell's origin.
        path = augment_config(workspace, tmp_path, lambda spec: None)
        lines = (tmp_path / "samples.jsonl").read_text().splitlines(keepends=True)
        lines[4], lines[5] = lines[5], lines[4]
        (tmp_path / "samples.jsonl").write_text("".join(lines))
        assert run(["augment", "--config", path]) == 2
        assert f"{tmp_path / 'samples.jsonl'}:5: " in capsys.readouterr().err
        assert not (tmp_path / "augmented.jsonl").exists()

    def test_hierarchy_rollup_key_is_data_error(self, workspace, tmp_path, capsys):
        # Expanded rows always sum, so a key_hierarchy has no rollup to name.
        path = augment_config(workspace, tmp_path,
                              lambda spec: spec["key_hierarchy"].update(rollup="sum"))
        assert run(["augment", "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"SpecViolation: {tmp_path / 'spec.json'}: " in err and "rollup" in err
        assert not (tmp_path / "augmented.jsonl").exists()

    def test_key_expansion_without_hierarchy_is_data_error(self, workspace, tmp_path, capsys):
        # The workspace plan expands keys; the spec has no hierarchy to expand by.
        path = augment_config(workspace, tmp_path, lambda spec: spec.pop("key_hierarchy"))
        assert run(["augment", "--config", path]) == 2
        assert "SpecViolation: key expansion needs a key hierarchy" in capsys.readouterr().err
        assert not (tmp_path / "augmented.jsonl").exists()

    def test_model_for_another_target_is_usage_error(self, workspace, tmp_path):
        spec = json.loads((workspace["root"] / "mapping_spec.json").read_text())
        spec["target"]["attributes"].remove("grocery")
        del spec["attr_map"]["mobility"]["grocery"]
        spec_path = tmp_path / "narrow_spec.json"
        spec_path.write_text(json.dumps(spec))
        config = integrate_config(workspace, tmp_path, spec=spec_path)
        assert run(["integrate", "--config", config]) == 1
        assert not (tmp_path / "target.csv").exists()

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "sources": [{"source_id": "covid", "path": "missing.csv"}],
            "mapping_spec": "missing_spec.json",
        }))
        assert run(["decompose", "--config", str(path)]) == 2
        assert f"{tmp_path / 'missing_spec.json'}: no such file" in capsys.readouterr().err

    @pytest.mark.parametrize("command, edit, message", [
        ("decompose", {"sources": [{"source_id": "covid"}]}, "{'source_id': 'covid'}"),
        ("decompose", {"sources": [{"path": "covid.csv"}]}, "{'path': 'covid.csv'}"),
        ("decompose", {"sources": [{"source_id": "deaths", "path": "covid.csv"}]},
         "source 'deaths' not in mapping spec"),
        ("decompose", {"mapping_spec": None}, "config needs a 'mapping_spec' path"),
        ("augment", {}, "config needs a 'plan' path"),
    ], ids=["source_without_path", "source_without_id", "source_not_in_spec",
            "no_mapping_spec", "augment_without_plan"])
    def test_incomplete_run_config_is_usage_error(self, workspace, tmp_path, capsys,
                                                  command, edit, message):
        config = {"mapping_spec": str(workspace["root"] / "mapping_spec.json"),
                  "out_dir": str(tmp_path), **edit}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
        assert run([command, "--config", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_cell_wider_than_max_width_is_data_error(self, workspace, tmp_path, capsys):
        root, fixture = workspace["root"], workspace["fixture"]
        config = json.loads(Path(workspace["config_path"]).read_text())
        config.update(
            sources=[{**e, "path": str(root / e["path"])} for e in config["sources"]],
            dictionaries={k: str(root / v) for k, v in config["dictionaries"].items()},
            mapping_spec=str(root / "mapping_spec.json"),
            out_dir=str(tmp_path), learner={"max_width": 1, "epochs": 1},
        )
        del config["plan"], config["model"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        for command in ("decompose", "gen-train"):
            assert run([command, "--config", str(path)]) == 0
        capsys.readouterr()
        assert run(["train", "--config", str(path)]) == 2
        widths = [len(s.label.attributes) for s in generate_training_data(
            fixture.spec, fixture.corpora, fixture.dictionaries)]
        wide = [w for w in widths if w > 1]
        err = capsys.readouterr().err
        assert wide and f"{len(wide)} samples" in err and f"widest {max(wide)}" in err
        assert not (tmp_path / "model.npz").exists()

    @pytest.mark.parametrize("damage", ["empty", "truncated", "not_npz", "no_meta",
                                        "meta_without_config", "meta_not_object",
                                        "meta_wrong_type", "meta_pooled_encoder"])
    def test_corrupt_model_is_data_error(self, workspace, tmp_path, capsys, damage):
        # np.load raises EOFError, BadZipFile, ValueError and KeyError on the
        # first four; the next three hold a ``__meta__`` of the wrong shape,
        # and the last names the mean-pooled encoder, which is gone.
        root = workspace["root"]
        bad_model = tmp_path / "model.npz"
        fields = {"format_version": 1, "schema": {"attributes": ["k"], "key_attributes": ["k"]},
                  "key_kinds": ["none"], "dictionaries": {}}
        meta = {"meta_without_config": {"format_version": 1}, "meta_not_object": [1],
                "meta_wrong_type": {
                    **fields, "config": {**TrainConfig().to_dict(), "epochs": "x"}},
                "meta_pooled_encoder": {
                    **fields, "config": {**TrainConfig().to_dict(), "encoder": "pooled"}}
                }.get(damage)
        if meta is not None:
            header = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            np.savez(bad_model, __meta__=header, E=np.zeros(64))
        else:
            np.savez(bad_model, E=np.zeros(64))
            npz = bad_model.read_bytes()
            bad_model.write_bytes({"empty": b"", "truncated": npz[:len(npz) // 2],
                                   "not_npz": b"not a model", "no_meta": npz}[damage])
        config = {
            "sources": [],
            "mapping_spec": str(root / "mapping_spec.json"),
            "model": str(bad_model),
            "out_dir": str(root / "out"),
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert run(["integrate", "--config", str(path)]) == 2
        assert str(bad_model) in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda spec: spec.update(agg_map={"covid": {"Confirmed": "median"}}),
        lambda spec: spec["sources"][0].update(format="xlsx"),
        lambda spec: spec["sources"][0]["canonicalizers"].update(Date="weekday"),
        lambda spec: spec["target"]["attributes"].remove("country"),
        lambda spec: spec.pop("target"),
        lambda spec: spec.update(key_map=5),
        lambda spec: spec.update(agg_map={"covid": 5}),
        lambda spec: spec["key_hierarchy"].update(children=5),
        lambda spec: spec["target"].update(key_domains=5),
        lambda spec: spec["sources"][0].update(canonicalizers=5),
        lambda spec: spec.update(notes="an unknown key"),
    ], ids=["agg_mode", "format", "canonicalizer", "key_attribute", "no_target",
            "key_map_shape", "agg_map_shape", "children_shape", "key_domains_shape",
            "canonicalizers_shape", "unknown_key"])
    def test_malformed_spec_is_data_error(self, workspace, tmp_path, capsys, edit):
        root = workspace["root"]
        spec = json.loads((root / "mapping_spec.json").read_text())
        edit(spec)
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        config = json.loads(Path(workspace["config_path"]).read_text())
        config.update(
            sources=[{**e, "path": str(root / e["path"])} for e in config["sources"]],
            dictionaries={k: str(root / v) for k, v in config["dictionaries"].items()},
            mapping_spec=str(tmp_path / "spec.json"), out_dir=str(tmp_path),
        )
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert run(["decompose", "--config", str(path)]) == 2
        assert "SpecViolation" in capsys.readouterr().err

    def test_supercells_not_utf8_is_data_error(self, workspace, tmp_path, capsys):
        cells = tmp_path / "supercells.jsonl"
        write_jsonl(workspace["fixture"].all_cells()[:3], cells)
        text = cells.read_bytes()
        cells.write_bytes(text[:40] + b"\xff" + text[40:])
        path = workspace_config(workspace, tmp_path)
        assert run(["gen-train", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "MalformedRecord" in err and f"{cells}: not UTF-8" in err
        assert not (tmp_path / "samples.jsonl").exists()

    def test_spec_not_utf8_is_data_error(self, workspace, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b"\xff" + (workspace["root"] / "mapping_spec.json").read_bytes())
        path = workspace_config(workspace, tmp_path, mapping_spec=str(spec))
        assert run(["decompose", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "SpecViolation" in err and f"{spec}: UnicodeDecodeError" in err
        assert not (tmp_path / "supercells.jsonl").exists()

    @pytest.mark.parametrize("groups", [{"alabama": ["al"]}, ["abc"], 5, [[1, 2]],
                                        [["al", {"a": 1}]]],
                             ids=["object", "strings", "number", "number_terms",
                                  "object_term"])
    def test_dictionary_of_wrong_shape_is_data_error(self, workspace, tmp_path, capsys,
                                                     groups):
        bad = tmp_path / "covid_synonyms.json"
        bad.write_text(json.dumps(groups))
        path = workspace_config(workspace, tmp_path, dictionaries={
            "covid_synonyms": str(bad),
            "us_states": str(workspace["root"] / "us_states.json"),
        })
        assert run(["decompose", "--config", path]) == 2
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "supercells.jsonl").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("decompose", "mapping_spec", "."), ("augment", "plan", ""), ("integrate", "model", "."),
        ("decompose", "mapping_spec", "covid.csv/spec.json"),
        ("integrate", "model", "covid.csv/model.npz"),
    ])
    def test_directory_input_is_data_error(self, workspace, tmp_path, capsys,
                                           command, key, value):
        # "." and "" resolve to the config file's own directory; a copy of
        # covid.csv lies there, so the other paths run through a file.
        (tmp_path / "covid.csv").write_bytes((workspace["root"] / "covid.csv").read_bytes())
        path = workspace_config(workspace, tmp_path, **{key: value})
        assert run([command, "--config", path]) == 2
        named = tmp_path / value
        reason = "a directory" if named.is_dir() else "a component of the path is a file"
        assert f"{named}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, damage", [
        ("covid.csv", b"\xff"), ("ubuntu.log", b"\xff"), ("covid_synonyms.json", b"\xff"),
        ("c.json", b"\xff"), ("plan.json", b"\xff"), ("c.json", b"{"), ("plan.json", b"{"),
    ], ids=["csv", "log", "dictionary", "config", "plan", "config_not_json",
            "plan_not_json"])
    def test_unreadable_input_is_data_error(self, workspace, tmp_path, capsys, name, damage):
        # A byte inserted into a copy of each input: 0xff is never UTF-8,
        # an extra "{" breaks the JSON.
        fixture = build_log_fixture(n_stamps=2) if name.endswith(".log") else workspace["fixture"]
        fixture_workspace(fixture, tmp_path)
        (tmp_path / "plan.json").write_text(json.dumps(workspace["plan"].to_dict()))
        damaged = tmp_path / name
        data = damaged.read_bytes()
        damaged.write_bytes(data[:10] + damage + data[10:])
        command = "augment" if name == "plan.json" else "decompose"
        assert run([command, "--config", str(tmp_path / "c.json")]) == 2
        assert str(damaged) in capsys.readouterr().err
        assert not (tmp_path / "out" / "supercells.jsonl").exists()

    @pytest.mark.parametrize("command", ["augment", "ablate"])
    def test_out_of_range_plan_rate_is_usage_error(self, workspace, tmp_path, capsys,
                                                   command):
        (tmp_path / "plan.json").write_text(json.dumps({"attr_rename_rate": 2.0}))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "mapping_spec": str(workspace["root"] / "mapping_spec.json"),
            "plan": "plan.json",
            "out_dir": str(tmp_path),
        }))
        assert run([command, "--config", str(path)]) == 1
        assert "attr_rename_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["config", "plan", "learner"])
    def test_non_object_block_is_usage_error(self, workspace, tmp_path, capsys, name):
        (tmp_path / "plan.json").write_text(json.dumps([1] if name == "plan" else {}))
        (tmp_path / "samples.jsonl").write_text("")
        config = {
            "mapping_spec": str(workspace["root"] / "mapping_spec.json"),
            "plan": "plan.json",
            "out_dir": str(tmp_path),
            "learner": [1] if name == "learner" else {},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps([config] if name == "config" else config))
        command = "train" if name == "learner" else "augment"
        assert run([command, "--config", str(path)]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_sample_line_without_label_is_data_error(self, workspace, tmp_path, capsys):
        fixture = workspace["fixture"]
        samples = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        lines = [s.to_json() for s in samples[:3]]
        broken = json.loads(lines[1])
        del broken["label"]
        lines[1] = json.dumps(broken)
        (tmp_path / "samples.jsonl").write_text("\n".join(lines) + "\n")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "mapping_spec": str(workspace["root"] / "mapping_spec.json"),
            "out_dir": str(tmp_path),
        }))
        assert run(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "MalformedRecord" in err and f"{tmp_path / 'samples.jsonl'}:2" in err
        assert "'label'" in err

    def test_key_error_from_a_bug_is_internal_error(self, workspace, tmp_path, monkeypatch):
        def buggy(*args, **kwargs):
            return {}["no such key"]

        monkeypatch.setattr(cli, "decompose", buggy)
        config = workspace["config_path"]
        assert run(["decompose", "--config", config, "--out", str(tmp_path)]) == 3
        assert not (tmp_path / "supercells.jsonl").exists()

    def test_ragged_csv_is_data_error(self, workspace, tmp_path):
        root = workspace["root"]
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("Date,Province/State,Country/Region,Confirmed,Recovered,Deaths,Fips\n1,2\n")
        config = {
            "sources": [{"source_id": "covid", "path": str(bad_csv)}],
            "dictionaries": {
                "covid_synonyms": str(root / "covid_synonyms.json"),
                "us_states": str(root / "us_states.json"),
            },
            "mapping_spec": str(root / "mapping_spec.json"),
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert run(["decompose", "--config", str(path)]) == 2

    @pytest.mark.parametrize("edit", [
        lambda source: source["log_rules"][0]["key_captures"].update(ts="stamp"),
        lambda source: source["log_rules"][1]["attr_value_captures"].update(cpu_user="usr"),
        lambda source: source["log_rules"][0].update(pattern="^Time: ("),
        lambda source: source.update(log_rules=[]),
    ], ids=["key_capture_group", "value_capture_group", "pattern", "no_rules"])
    def test_malformed_log_rules_are_data_error(self, tmp_path, capsys, edit):
        path = fixture_workspace(build_log_fixture(n_stamps=2), tmp_path)
        spec_path = tmp_path / "mapping_spec.json"
        spec = json.loads(spec_path.read_text())
        edit(spec["sources"][0])
        spec_path.write_text(json.dumps(spec))
        assert run(["decompose", "--config", path]) == 2
        assert f"SpecViolation: {spec_path}: ValueError" in capsys.readouterr().err
        assert not (tmp_path / "out" / "supercells.jsonl").exists()

    @pytest.mark.parametrize("edit", [
        lambda label: label.update(keys=label["keys"][:2]),
        lambda label: label.update(attributes=["no_such_attribute"] * len(label["attributes"])),
    ], ids=["two_keys", "unknown_attribute"])
    def test_label_outside_the_schema_is_data_error(self, workspace, tmp_path, capsys, edit):
        fixture = workspace["fixture"]
        samples = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
        lines = [s.to_dict() for s in samples[:3]]
        edit(lines[1]["label"])
        (tmp_path / "samples.jsonl").write_text("".join(json.dumps(x) + "\n" for x in lines))
        path = workspace_config(workspace, tmp_path, learner={
            "epochs": 1, "embed_dim": 4, "hidden": 4, "bucket_count": 64})
        assert run(["train", "--config", path]) == 2
        assert f"data error: InvalidPosition: {tmp_path / 'samples.jsonl'}:2: " in (
            capsys.readouterr().err)
        assert not (tmp_path / "model.npz").exists()

    def test_spec_mode_conflict_is_data_error(self, workspace, tmp_path, capsys):
        # mobility's workplace lands on covid's confirmed, REPLACE against SUM.
        spec = json.loads((workspace["root"] / "mapping_spec.json").read_text())
        spec["attr_map"]["mobility"]["workplace"] = "confirmed"
        spec["agg_map"]["covid"] = {"confirmed": "sum", "recovered": "sum"}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        path = workspace_config(workspace, tmp_path, mapping_spec=str(tmp_path / "spec.json"))
        assert run(["decompose", "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"data error: SpecViolation: {tmp_path / 'spec.json'}: " in err
        assert "'confirmed'" in err and "sum from covid" in err and "replace from mobility" in err
        assert not (tmp_path / "supercells.jsonl").exists()

    @pytest.mark.parametrize("damage", [
        lambda arrays: arrays.clear(),
        lambda arrays: arrays.update(E=arrays["E"][:10]),
        lambda arrays: arrays.update(head0_W=arrays["head0_W"][:, :2]),
        lambda arrays: arrays.update(Uf=arrays["Uf"].astype(np.int64)),
    ], ids=["no_arrays", "short_embedding", "narrow_head", "int_weights"])
    def test_model_arrays_unlike_its_header_are_data_error(self, workspace, tmp_path, capsys,
                                                           damage):
        config = integrate_config(workspace, tmp_path)
        model = tmp_path / "model.npz"
        params = ModelParams.load(model)
        damage(params.arrays)
        params.save(model)
        assert run(["integrate", "--config", config]) == 2
        assert f"MalformedRecord: {model}: ValueError" in capsys.readouterr().err
        assert not (tmp_path / "target.csv").exists()

    def test_model_header_with_ngram_sizes_is_data_error(self, workspace, tmp_path, capsys):
        # Subword n-grams are always 3- to 5-grams; a header naming their
        # sizes is rejected like any other unknown config key.
        config = integrate_config(workspace, tmp_path)
        model = tmp_path / "model.npz"
        with np.load(model) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["config"]["ngram_min"] = 3
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(model, **arrays)
        assert run(["integrate", "--config", config]) == 2
        err = capsys.readouterr().err
        assert f"MalformedRecord: {model}: " in err and "ngram_min" in err
        assert not (tmp_path / "target.csv").exists()

    @pytest.mark.parametrize("flag, out", [
        ("--out", "covid.csv"), ("--out", "covid.csv/x"), ("out_dir", "covid.csv"),
    ])
    def test_out_dir_that_is_a_file_is_usage_error(self, workspace, tmp_path, capsys,
                                                   flag, out):
        (tmp_path / "covid.csv").write_bytes((workspace["root"] / "covid.csv").read_bytes())
        if flag == "--out":
            args = ["--config", workspace_config(workspace, tmp_path), "--out", out]
        else:
            args = ["--config", workspace_config(workspace, tmp_path, out_dir=out)]
        assert run(["decompose", *args]) == 1
        assert f"usage error: out_dir {tmp_path / out} is not a directory" in (
            capsys.readouterr().err)


def test_baseline_without_key_columns_logs_its_failure(tmp_path, capsys):
    # A log workspace has no table to sign, so no target key attribute
    # finds a column: the run still exits 0 and writes its matches.
    path = fixture_workspace(build_log_fixture(n_stamps=2), tmp_path)
    assert run(["baseline", "--config", path]) == 0
    assert "baseline: integration failed (uncoverable: ['ts', 'host'])" in (
        capsys.readouterr().err)
    assert json.loads((tmp_path / "out" / "matches.json").read_text())["best"] == {}
    assert not (tmp_path / "out" / "baseline.csv").exists()


def test_ablate_without_hierarchy_leaves_out_key_expansion(tmp_path, capsys):
    path = fixture_workspace(build_log_fixture(n_stamps=2), tmp_path, plan=None, learner={
        "epochs": 1, "embed_dim": 4, "hidden": 4, "bucket_count": 64})
    assert run(["ablate", "--config", path]) == 0
    assert "ablate: left out key_expansion" in capsys.readouterr().err
    (report,) = (tmp_path / "out" / "ablation").glob("*/ablation.csv")
    variants = [line.split(",")[0] for line in report.read_text().splitlines()[1:]]
    assert variants == [v.name for v in default_variants(9001, None) if v.name != "key_expansion"]


def test_every_program_exception_is_a_data_error():
    # Exit 2 is ``except core.DataError``: an input check that raises any
    # other exception class would exit 3, as a bug does.
    stray = []
    for info in pkgutil.iter_modules(supercell.__path__):
        module = importlib.import_module(f"supercell.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__ and obj is not cli.UsageError
                    and not issubclass(obj, DataError)):
                stray.append(f"{module.__name__}.{name}")
    assert stray == []


def test_seed_flag_overrides(workspace, tmp_path):
    config = workspace["config_path"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["decompose", "--config", config, "--out", str(out_a)]) == 0
    assert run(["decompose", "--config", config, "--out", str(out_b)]) == 0
    a = (out_a / "supercells.jsonl").read_bytes()
    b = (out_b / "supercells.jsonl").read_bytes()
    assert a == b


def test_config_paths_resolve_against_its_directory(tmp_path, monkeypatch):
    conf = (tmp_path / "conf").resolve()
    conf.mkdir()
    (conf / "run.json").write_text(json.dumps({
        "sources": [{"source_id": "covid", "path": "data/covid.csv"},
                    {"source_id": "mobility", "path": "/abs/mobility.csv"}],
        "dictionaries": {"a": "a.json", "b": "/abs/b.json"},
        "mapping_spec": "spec.json", "plan": "/abs/plan.json", "model": "m/model.npz",
        "out_dir": "out", "seed": 4,
    }))
    monkeypatch.chdir(tmp_path)
    config = cli.load_config("conf/run.json", seed=None, out=None)
    assert config.sources == (cli.Source("covid", conf / "data/covid.csv"),
                              cli.Source("mobility", Path("/abs/mobility.csv")))
    assert config.dictionaries == {"a": conf / "a.json", "b": Path("/abs/b.json")}
    assert config.mapping_spec == conf / "spec.json"
    assert config.plan == Path("/abs/plan.json")
    assert config.model == conf / "m/model.npz"
    assert config.out_dir == conf / "out"
    assert config.seed == 4

    overridden = cli.load_config("conf/run.json", seed=9, out="elsewhere")
    assert overridden.out_dir == conf / "elsewhere" and overridden.seed == 9
    assert cli.load_config("conf/run.json", None, "/abs/out").out_dir == Path("/abs/out")

    (conf / "run.json").write_text(json.dumps({"out_dir": "/abs/out"}))
    defaults = cli.load_config("conf/run.json", seed=None, out=None)
    assert defaults.model == Path("/abs/out/model.npz")
    assert cli.load_config("conf/run.json", None, "o").model == conf / "o/model.npz"
    assert defaults.mapping_spec is None and defaults.plan is None and defaults.seed == 0
