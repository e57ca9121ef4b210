"""Unioning heterogeneous machine logs into one metrics table.

Three operating systems report the same metrics in three line formats.
Regex rules decompose each log into super cells keyed by (timestamp, host);
the learned model maps every cell into one unified table, and stays above
water when log terms are renamed or number formats drift.
"""

from supercell.assemble import diff_tables
from supercell.datasets import build_log_fixture
from supercell.evaluate import AblationVariant, train_on_fixture, variant_test_set
from supercell.learner import TrainConfig, accuracy, integrate_predictions
from supercell.mapping import generate_training_data, oracle_integrate
from supercell.perturb import PerturbationPlan

fixture = build_log_fixture(n_stamps=24)

print("one entry per OS:")
for name, text in fixture.logs.items():
    print(f"--- {name}")
    for line in text.splitlines()[:3]:
        print("   ", line)
print()

cells = fixture.all_cells()
print(f"{len(cells)} super cells; one from android:")
print(" ", fixture.corpora["android"][1])
print()

config = TrainConfig(
    encoder="recurrent", embed_dim=32, hidden=48, bucket_count=4096,
    epochs=40, batch_size=64, learning_rate=3e-3, seed=3,
)
plan = PerturbationPlan(
    seed=19, attr_rename_rate=0.6, char_noise_rate=0.08,
    value_reformat_rate=0.4, add_remove_noise_columns=20,
    synonym_dict="log_synonyms",
)
model, curve, samples = train_on_fixture(fixture, config, plan)
print(f"trained on {len(samples)} samples; final loss {curve[-1].loss:.4f}")

oracle = oracle_integrate(fixture.spec, fixture.corpora, fixture.dictionaries)
table = integrate_predictions(cells, model)
diff = diff_tables(oracle, table)
print(f"clean union vs oracle: {diff['agreement']:.4f} agreement")
print("first rows of the unified table:")
for row in table.finalized_rows()[:3]:
    print(" ", row)
print()

base = generate_training_data(fixture.spec, fixture.corpora, fixture.dictionaries)
variant = AblationVariant(
    "renamed+reformatted",
    PerturbationPlan(seed=77, attr_rename_rate=0.6, value_reformat_rate=0.5,
                     synonym_dict="log_synonyms"),
)
perturbed = variant_test_set(fixture, base, variant)
print(f"accuracy with renamed/reformatted log terms: "
      f"{accuracy(perturbed, model):.4f}")
