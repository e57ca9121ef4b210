"""Training the position classifier and assembling its predictions.

The model never sees the mapping spec at inference time: each super cell's
feature sentence goes in, a target position comes out, and the assembler
merges values with full aggregation semantics. On a clean corpus the
assembled table should match the oracle cell for cell. The model trained
without augmentation gets as many Adam steps as the augmented one (its
smaller sample set takes more epochs), so the two differ only in their
data: it scores 0.9270 clean and 0.9227 on renames + reformats, where the
augmented model scores 1.0000 and 0.9571.
"""

import math
from dataclasses import replace

from supercell.assemble import diff_tables
from supercell.core import Timings
from supercell.datasets import build_covid_fixture
from supercell.evaluate import (
    AblationVariant,
    train_on_fixture,
    variant_test_set,
)
from supercell.learner import TrainConfig, accuracy, integrate_predictions, predict_cells
from supercell.mapping import generate_training_data, oracle_integrate
from supercell.perturb import PerturbationPlan

fixture = build_covid_fixture(n_dates=6, n_states=12)
print(f"fixture: {len(fixture.all_cells())} super cells")

config = TrainConfig(
    encoder="recurrent", embed_dim=32, hidden=48, bucket_count=4096,
    epochs=10, batch_size=128, learning_rate=3e-3, seed=3,
)
plan = PerturbationPlan(
    seed=5, attr_rename_rate=0.583, char_noise_rate=0.08,
    value_reformat_rate=0.4, key_expansion_rate=0.12,
    add_remove_noise_columns=40, synonym_dict="covid_synonyms",
)

timings = Timings()
with timings.block("train_s"):
    aug_model, curve, train_samples = train_on_fixture(fixture, config, plan)
print(f"trained on {len(train_samples)} augmented samples "
      f"in {timings['train_s']:.1f}s; "
      f"loss {curve[0].loss:.2f} -> {curve[-1].loss:.4f}")


# Train without augmentation for the same number of Adam steps.
steps = config.epochs * math.ceil(len(train_samples) / config.batch_size)
base = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
noaug_epochs = math.ceil(steps / math.ceil(len(base) / config.batch_size))
noaug_model, _, _ = train_on_fixture(fixture, replace(config, epochs=noaug_epochs), None)
print(f"trained without augmentation on {len(base)} samples for {noaug_epochs} epochs: "
      f"{noaug_epochs * math.ceil(len(base) / config.batch_size)} Adam steps, "
      f"against {steps} with augmentation")

variant = AblationVariant(
    "rename+reformat",
    PerturbationPlan(seed=99, attr_rename_rate=6 / 7, value_reformat_rate=0.5,
                     synonym_dict="covid_synonyms"),
)
perturbed = variant_test_set(fixture, base, variant)

print()
print(f"{'':24s}{'clean':>8s}{'perturbed':>12s}")
for name, model in (("with augmentation", aug_model), ("without", noaug_model)):
    clean = accuracy(base, model)
    rough = accuracy(perturbed, model)
    print(f"{name:24s}{clean:8.4f}{rough:12.4f}")
print()

# One prediction up close: a cell with a never-seen date still lands on the
# right row because the key label is a COPY of the date component.
cell = fixture.all_cells()[0]
prediction = predict_cells([cell], aug_model)[0]
print("cell keys:", cell.keys)
print("predicted position:", prediction.position.keys, prediction.position.attributes,
      prediction.position.agg_mode.value, f"(confidence {prediction.confidence:.3f})")
print()

table = integrate_predictions(fixture.all_cells(), aug_model)
oracle = oracle_integrate(fixture.spec, fixture.corpora, fixture.dictionaries)
diff = diff_tables(oracle, table)
print(f"assembled table vs oracle: {diff['agreement']:.4f} agreement "
      f"({diff['mismatched']} of {diff['total_cells']} cells differ)")
