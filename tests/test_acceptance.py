"""Acceptance criteria, one test per criterion.

Each test records one PASS/FAIL line (printed in the terminal summary via
the conftest hook) and asserts its stated gates. Heavy artifacts (trained
models) come from session fixtures in conftest.py.
"""

import math
from collections import Counter
from decimal import Decimal

import numpy as np

from supercell.assemble import TargetTable, diff_tables, render_decimal
from supercell.baseline import (
    estimate_jaccard,
    match_columns,
    signature,
    storage_report,
)
from supercell.canon import CanonKind
from supercell.core import (
    AggMode,
    KeyDomain,
    SuperCell,
    TargetPosition,
    TargetSchema,
    Timings,
)
from supercell.datasets import (
    build_covid_fixture,
    build_pivoted_deaths,
    build_wide_tables,
    covid_unpivoted_view,
)
from supercell.evaluate import (
    AblationConfig,
    AblationVariant,
    compare_baseline,
    default_variants,
    run_ablation,
    variant_test_set,
)
from supercell.ingest import Pivot, RawTable, SourceDescriptor, decompose, pivot_table
from supercell.learner import (
    TrainConfig,
    accuracy,
    gradient_check,
    init_params,
    integrate_predictions,
    predict_cells,
)
from supercell.mapping import generate_training_data, oracle_integrate
from supercell.perturb import PerturbationPlan, reorder_attributes

from conftest import covid_train_plan, desk_train_config, record_criterion as report


def test_criterion_01_oracle_equivalence(covid_fixture, covid_models):
    timings = Timings()
    with timings.block("integrate_s"):
        table = integrate_predictions(covid_fixture.all_cells(), covid_models["aug"])
    oracle = oracle_integrate(
        covid_fixture.spec, covid_fixture.corpora, covid_fixture.dictionaries
    )
    agreement = diff_tables(oracle, table)["agreement"]
    runtime = covid_models["aug_train_s"] + timings["integrate_s"]
    ok = agreement >= 0.99 and runtime < 180.0
    report(1, "oracle equivalence", ok,
           f"cell agreement {agreement:.4f} (gate 0.99), "
           f"train+integrate {runtime:.1f}s (gate 180s), "
           f"{len(covid_fixture.all_cells())} super cells")
    assert agreement >= 0.99
    assert runtime < 180.0


def test_criterion_02_robustness_gate(covid_fixture, covid_models, covid_base_samples):
    variants = {v.name: v for v in default_variants(777, "covid_synonyms")}
    rename_reformat = variants["rename_6_attrs_value_formats"]
    expansion = variants["key_expansion"]

    clean_aug = accuracy(covid_base_samples, covid_models["aug"])
    test_rr = variant_test_set(covid_fixture, covid_base_samples, rename_reformat)
    aug_rr = accuracy(test_rr, covid_models["aug"])
    noaug_clean = accuracy(covid_base_samples, covid_models["noaug"])
    noaug_rr = accuracy(test_rr, covid_models["noaug"])
    test_exp = variant_test_set(covid_fixture, covid_base_samples, expansion)
    aug_exp = accuracy(test_exp, covid_models["aug"])

    drop = noaug_clean - noaug_rr
    ok = (
        aug_rr >= 0.95
        and clean_aug - aug_rr <= 0.05
        and drop >= 0.10
        and aug_exp >= 0.90
    )
    report(2, "robustness gate", ok,
           f"aug rename+reformat {aug_rr:.4f} (gate 0.95, clean {clean_aug:.4f}), "
           f"no-aug drop {drop:.4f} (gate 0.10), "
           f"key expansion {aug_exp:.4f} (gate 0.90)")
    assert aug_rr >= 0.95
    assert clean_aug - aug_rr <= 0.05
    assert drop >= 0.10
    assert aug_exp >= 0.90


def _random_keyed_table(rng) -> RawTable:
    n_ids = int(rng.integers(2, 5))
    n_days = int(rng.integers(2, 5))
    ids = [f"r{int(rng.integers(10, 99))}{chr(97 + i)}" for i in range(n_ids)]
    days = [f"d{10 + i}" for i in range(n_days)]
    rows = [
        (i, d, str(int(rng.integers(0, 10**4))))
        for i in ids
        for d in days
        if rng.random() < 0.8
    ]
    if not rows:
        rows = [(ids[0], days[0], "1")]
    return RawTable(("id", "day", "metric"), tuple(rows))


def test_criterion_03_pivot_reorder_invariance():
    schema = TargetSchema(
        attributes=("id", "day", "metric"),
        key_attributes=("id", "day"),
        key_domains={"id": KeyDomain((), open=True), "day": KeyDomain((), open=True)},
    )
    params = init_params(
        TrainConfig(encoder="recurrent", embed_dim=8, hidden=8, bucket_count=128,
                    max_copy=3, max_width=1, seed=5),
        schema,
        key_kinds=[CanonKind("none"), CanonKind("none")],
    )
    desc = SourceDescriptor(source_id="t", key_columns=("id", "day"))
    pdesc = SourceDescriptor(
        source_id="t", format="pivoted_csv", key_columns=("id",),
        pivot=Pivot(pivot_axis_name="day", value_attr_name="metric"),
    )
    rng = np.random.default_rng(1234)
    checked = 0
    for trial in range(100):
        table = _random_keyed_table(rng)
        base = decompose(table, desc)
        reordered = decompose(reorder_attributes(table, seed=trial), desc)
        pivoted = decompose(pivot_table(table, ["id", "day"], "day"), pdesc)
        sig = lambda cells: Counter(c.signature() for c in cells)
        assert sig(base) == sig(reordered) == sig(pivoted)

        def positions(cells):
            return {
                c.signature(): p.position
                for c, p in zip(cells, predict_cells(cells, params))
            }
        base_pos = positions(base)
        assert positions(reordered) == base_pos
        assert positions(pivoted) == base_pos
        checked += 1
    report(3, "pivot/reorder invariance", checked == 100,
           f"{checked}/100 random tables: multisets equal, predictions identical")
    assert checked == 100


def test_criterion_04_gradient_correctness():
    worst = 0.0
    for seed in range(20):
        worst = max(worst, gradient_check(seed=seed))
    ok = worst < 1e-3
    report(4, "gradient correctness", ok,
           f"max relative error {worst:.2e} over 20 random tiny models "
           "(gate 1e-3, abs floor 1e-6)")
    assert worst < 1e-3


def _brute_force(mode: AggMode, values: list) -> str:
    if mode in (AggMode.SUM, AggMode.MIN, AggMode.MAX, AggMode.AVG):
        nums = [Decimal(v) for v in values]
        if mode is AggMode.SUM:
            return render_decimal(sum(nums))
        if mode is AggMode.MIN:
            return render_decimal(min(nums))
        if mode is AggMode.MAX:
            return render_decimal(max(nums))
        return render_decimal(sum(nums) / len(nums))
    if mode is AggMode.COUNT:
        return str(len(values))
    if mode is AggMode.REPLACE:
        return values[-1]
    if mode is AggMode.DISCARD:
        return values[0]
    return "|".join(values)


SCHEMA_2K = TargetSchema(
    attributes=("k1", "k2", "v"),
    key_attributes=("k1", "k2"),
    key_domains={"k1": KeyDomain((), open=True), "k2": KeyDomain((), open=True)},
)

COMMUTATIVE = (AggMode.SUM, AggMode.MIN, AggMode.MAX, AggMode.AVG, AggMode.COUNT)


def test_criterion_05_aggregation_semantics():
    rng = np.random.default_rng(55)
    sequences = 0
    for mode in AggMode:
        numeric = mode in (AggMode.SUM, AggMode.MIN, AggMode.MAX, AggMode.AVG)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            if numeric:
                values = [str(int(rng.integers(-10**6, 10**6))) for _ in range(n)]
            else:
                values = [f"v{int(rng.integers(1000))}" for _ in range(n)]
            table = TargetTable(SCHEMA_2K)
            for v in values:
                cell = SuperCell("s", ("a", "b"), ("v",), (v,), 0)
                table.apply(cell, TargetPosition(("a", "b"), ("v",), mode))
            got = table.rows[("a", "b")]["v"].finalize()
            assert got == _brute_force(mode, values), (mode, values)
            if mode in COMMUTATIVE and n > 1:
                perm = [values[int(i)] for i in rng.permutation(n)]
                table2 = TargetTable(SCHEMA_2K)
                for v in perm:
                    cell = SuperCell("s", ("a", "b"), ("v",), (v,), 0)
                    table2.apply(cell, TargetPosition(("a", "b"), ("v",), mode))
                assert table2.rows[("a", "b")]["v"].finalize() == got
            sequences += 1
    report(5, "aggregation semantics", True,
           f"{sequences} random write sequences match brute force; "
           "commutative modes permutation-invariant")


def test_criterion_06_minhash_estimator():
    rng = np.random.default_rng(66)
    L = 128
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

    def shingle_pool(n):
        pool = set()
        while len(pool) < n:
            pool.add("".join(alphabet[int(rng.integers(36))] for _ in range(3)))
        return sorted(pool)

    errors = []
    bounds = []
    for _ in range(500):
        n_shared = int(rng.integers(5, 40))
        n_a = int(rng.integers(0, 30))
        n_b = int(rng.integers(0, 30))
        pool = shingle_pool(n_shared + n_a + n_b)
        shared = pool[:n_shared]
        only_a = pool[n_shared : n_shared + n_a]
        only_b = pool[n_shared + n_a :]
        set_a, set_b = set(shared + only_a), set(shared + only_b)
        exact = len(set_a & set_b) / len(set_a | set_b)
        est = estimate_jaccard(
            signature(sorted(set_a), L=L), signature(sorted(set_b), L=L)
        )
        errors.append(abs(est - exact))
        bounds.append(2.0 * math.sqrt(exact * (1 - exact) / L))
    mean_error = sum(errors) / len(errors)
    mean_bound = sum(bounds) / len(bounds)
    bytes_470 = storage_report(470, 512)
    ok = mean_error <= mean_bound and bytes_470 == 962_560
    report(6, "minhash estimator", ok,
           f"mean |err| {mean_error:.4f} <= bound {mean_bound:.4f} over 500 pairs; "
           f"storage 470 cols @ L=512 = {bytes_470} bytes (940 KB)")
    assert mean_error <= mean_bound
    assert bytes_470 == 962_560


def test_criterion_07_baseline_fragility(covid_fixture, covid_models):
    pivoted_table, pivoted_desc = build_pivoted_deaths(covid_fixture)
    oracle = oracle_integrate(
        covid_fixture.spec, covid_fixture.corpora, covid_fixture.dictionaries
    )
    example = RawTable(
        tuple(oracle.header()), tuple(tuple(r) for r in oracle.finalized_rows())
    )
    matches = match_columns({"covid": pivoted_table}, example)
    date_unmatched = "date" in matches.unmatched

    cr_table, cr_desc = covid_unpivoted_view(covid_fixture)
    corpus = (
        decompose(cr_table, cr_desc, covid_fixture.dictionaries)
        + decompose(pivoted_table, pivoted_desc, covid_fixture.dictionaries)
        + covid_fixture.corpora["mobility"]
    )
    table = integrate_predictions(corpus, covid_models["aug"])
    agreement = diff_tables(oracle, table)["agreement"]
    ok = date_unmatched and agreement >= 0.99
    report(7, "baseline fragility on pivot", ok,
           f"pivot attribute unmatched: {date_unmatched}; "
           f"learner agreement on pivoted corpus {agreement:.4f} (gate 0.99)")
    assert date_unmatched
    assert agreement >= 0.99


def test_criterion_08_storage_comparison(covid_models):
    model_bytes = covid_models["model_path"].stat().st_size
    wide = build_wide_tables()
    n_columns = sum(len(t.header) for t in wide.values())
    expected_store = storage_report(n_columns, 512)
    ok = model_bytes < 1_000_000 and model_bytes < expected_store
    report(8, "storage comparison", ok,
           f"model file {model_bytes} bytes < 1 MB and < signature store "
           f"{expected_store} bytes ({n_columns} columns @ L=512)")
    assert model_bytes < 1_000_000
    assert model_bytes < expected_store


def _eval_suite_run(out_dir):
    fixture = build_covid_fixture(seed=41, n_dates=3, n_states=6)
    config = desk_train_config(embed_dim=16, hidden=16, bucket_count=512, epochs=4)
    plan = covid_train_plan(seed=13)
    ablation = AblationConfig(
        variants=default_variants(13 + 9001, "covid_synonyms"),
        train_plan=plan,
    )
    run_ablation(config, fixture, ablation, out_dir / "ablation")
    from supercell.evaluate import train_on_fixture

    params, _, _ = train_on_fixture(fixture, config, plan)
    compare_baseline(fixture, params, out_dir / "compare")
    run_dir = out_dir / "ablation" / ablation.config_hash(config)
    return (
        (run_dir / "ablation.csv").read_bytes(),
        (out_dir / "compare" / "comparison.json").read_bytes(),
        (out_dir / "compare" / "oracle.csv").read_bytes(),
        (out_dir / "compare" / "learner.csv").read_bytes(),
    )


def test_criterion_09_determinism(tmp_path):
    first = _eval_suite_run(tmp_path / "run1")
    second = _eval_suite_run(tmp_path / "run2")
    ok = first == second
    report(9, "determinism", ok,
           "two eval-suite runs with identical seeds are byte-identical "
           f"({len(first)} report files compared; timing files exempt)")
    assert first == second


def test_criterion_10_machine_log_scenario(log_fixture, log_model):
    oracle = oracle_integrate(
        log_fixture.spec, log_fixture.corpora, log_fixture.dictionaries
    )
    table = integrate_predictions(log_fixture.all_cells(), log_model["params"])
    clean_exact = oracle.to_csv() == table.to_csv()

    base = generate_training_data(
        log_fixture.spec, log_fixture.corpora, log_fixture.dictionaries
    )
    variant = AblationVariant(
        "rename_reformat",
        PerturbationPlan(seed=77, attr_rename_rate=0.6, value_reformat_rate=0.5,
                         synonym_dict="log_synonyms"),
    )
    perturbed = variant_test_set(log_fixture, base, variant)
    acc = accuracy(perturbed, log_model["params"])
    ok = clean_exact and acc >= 0.90
    report(10, "machine-log scenario", ok,
           f"clean union reproduces oracle exactly: {clean_exact}; "
           f"renamed/reformatted accuracy {acc:.4f} (gate 0.90)")
    assert clean_exact
    assert acc >= 0.90
