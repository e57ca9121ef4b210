"""Session-scoped fixtures: the heavy trained models are built once and
shared between the acceptance criteria and the report tests. Also hosts the
acceptance reporting hook, which prints one PASS/FAIL line per criterion in
the terminal summary (after pytest's capture ends, so the lines always
appear)."""

import pytest

from supercell.core import Timings
from supercell.datasets import build_covid_fixture, build_log_fixture
from supercell.learner import TrainConfig
from supercell.mapping import generate_training_data
from supercell.perturb import PerturbationPlan
from supercell.evaluate import train_on_fixture

ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_criterion(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:2d} {status}  {name}: {detail}"
    ACCEPTANCE_LINES.append((number, line))
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def desk_train_config(**kw):
    """Desk-scale dims, the ``TrainConfig`` defaults: small enough that the
    saved model stays under the storage gates, large enough to hit the
    accuracy gates."""
    return TrainConfig(**{"seed": 3, **kw})


def reference_fnv1a64(data: str | bytes) -> int:
    """64-bit FNV-1a, one byte at a time: the reference for ``fnv1a64_spans``."""
    acc = 0xCBF29CE484222325
    for byte in data.encode("utf-8") if isinstance(data, str) else data:
        acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def covid_train_plan(seed=5):
    return PerturbationPlan(
        seed=seed, attr_rename_rate=0.583, char_noise_rate=0.08,
        value_reformat_rate=0.4, key_expansion_rate=0.12,
        add_remove_noise_columns=40, synonym_dict="covid_synonyms",
    )


@pytest.fixture(scope="session")
def covid_fixture():
    return build_covid_fixture()


@pytest.fixture(scope="session")
def covid_base_samples(covid_fixture):
    return generate_training_data(
        covid_fixture.spec, covid_fixture.corpora, covid_fixture.dictionaries
    )


@pytest.fixture(scope="session")
def covid_models(covid_fixture, tmp_path_factory):
    """Augmented and unaugmented models on the full COVID-style fixture,
    plus the saved model file and the wall time of the augmented training."""
    config = desk_train_config()
    plan = covid_train_plan()
    timings = Timings()
    with timings.block("aug_train_s"):
        aug_params, aug_curve, aug_samples = train_on_fixture(covid_fixture, config, plan)
    noaug_params, _, _ = train_on_fixture(covid_fixture, config, None)
    model_path = tmp_path_factory.mktemp("model") / "covid_model.npz"
    aug_params.save(model_path)
    return {
        "config": config,
        "plan": plan,
        "aug": aug_params,
        "aug_curve": aug_curve,
        "aug_train_s": timings["aug_train_s"],
        "n_train_samples": len(aug_samples),
        "noaug": noaug_params,
        "model_path": model_path,
    }


@pytest.fixture(scope="session")
def log_fixture():
    return build_log_fixture()


@pytest.fixture(scope="session")
def log_model(log_fixture):
    config = desk_train_config(epochs=60, batch_size=64)
    plan = PerturbationPlan(
        seed=19, attr_rename_rate=0.6, char_noise_rate=0.08,
        value_reformat_rate=0.4, add_remove_noise_columns=20,
        synonym_dict="log_synonyms",
    )
    params, curve, samples = train_on_fixture(log_fixture, config, plan)
    return {"params": params, "plan": plan, "curve": curve, "n_samples": len(samples)}
