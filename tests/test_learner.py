"""Learner: subword embeddings, forward/backward, training, prediction."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from supercell.canon import CanonKind
from supercell.core import (
    AggMode,
    FeatureSentence,
    KeyDomain,
    SuperCell,
    TargetPosition,
    TargetSchema,
    copy_marker,
    discard_position,
    fnv1a64,
    render_feature,
)
from supercell import learner
from supercell.learner import (
    EmptyEvalSet,
    ModelParams,
    SubwordVocab,
    TrainConfig,
    _accuracy_encoded,
    _embed_backward,
    _embed_batch,
    _forward_batch,
    _sigmoid,
    _softmax,
    accuracy,
    encode,
    encode_samples,
    gradient_check,
    init_params,
    integrate_predictions,
    loss_and_grads,
    predict_cells,
    train,
)
from supercell import mapping
from supercell.mapping import LabeledSample, resolve_position

from conftest import reference_fnv1a64

SCHEMA = TargetSchema(
    attributes=("k", "a", "b"),
    key_attributes=("k",),
    key_domains={"k": KeyDomain(("x", "y"), open=True)},
)


def tiny_config(**kw):
    defaults = dict(embed_dim=8, hidden=8, bucket_count=256, max_copy=2,
                    max_width=2, epochs=40, batch_size=8, seed=0,
                    learning_rate=0.01)
    defaults.update(kw)
    return TrainConfig(**defaults)


def make_samples(n=10, seed=0):
    rng = np.random.default_rng(seed)
    words = ["alpha", "bravo", "charlie", "delta", "echo", "fox"]
    samples = []
    for i in range(n):
        key = ["x", "y"][i % 2]
        attr = ["a", "b"][(i // 2) % 2]
        token = words[int(rng.integers(len(words)))]
        cell = SuperCell("s", (key,), (token,), (str(i),), i)
        label = TargetPosition((key,), (attr,), AggMode.REPLACE)
        samples.append(LabeledSample(render_feature(cell), label, ("s", i)))
    return samples


def batch_of(sentence, params):
    """One-sentence unlabeled batch, the form predict_cells feeds the model."""
    return [encode(sentence, params.vocab)]


def logits_of(sentence, params):
    """Per-head logits of one sentence predicted on its own."""
    logits, _ = _forward_batch(batch_of(sentence, params), params)
    return [head[0] for head in logits]


def embed_backward_reference(sentences, dX, params):
    """Per-occurrence float64 loop: each token's gradient (the rows of
    ``dX``, in occurrence order), split evenly over its bucket rows."""
    reference = np.zeros(params.arrays["E"].shape, dtype=np.float64)
    tokens = [token for sentence in sentences for token in sentence.tokens]
    assert len(tokens) == len(dX)
    for token, grad in zip(tokens, dX):
        buckets = params.vocab.buckets(token)
        for bucket in buckets:
            reference[bucket] += grad.astype(np.float64) / len(buckets)
    return reference


@st.composite
def repeating_batches(draw):
    """Tokens seen before the batch, and a batch of sentences drawn from a
    small pool, so tokens repeat within and across samples."""
    pool = draw(st.lists(st.text("ab<>é1", max_size=6), min_size=1, max_size=6, unique=True))
    seen = draw(st.lists(st.text("abc", max_size=4), max_size=5))
    tokens = st.lists(st.sampled_from(pool), min_size=1, max_size=7)
    sentences = draw(st.lists(tokens, min_size=1, max_size=6))
    return seen, [FeatureSentence(tuple(t), ("VAL",) * len(t)) for t in sentences]


def padded_gru_reference(batch, targets, params):
    """Logits and gradients of the recurrent model computed the padded way:
    the tokens are placed in a zero-padded ``(B, T, d)`` array, every row
    runs every step, and a masked step keeps the row's state."""
    arrays = params.arrays
    tokens, embed_cache = _embed_batch(batch, params)
    n_tokens = [len(ids) for ids in batch]
    rows = np.repeat(np.arange(len(batch)), n_tokens)
    cols = np.concatenate([np.arange(n) for n in n_tokens])
    X = np.zeros((len(batch), max(n_tokens), tokens.shape[1]))
    mask = np.zeros((len(batch), max(n_tokens)))
    X[rows, cols] = tokens
    mask[rows, cols] = 1.0
    hs = arrays["Uf"].shape[0]

    def scan(W, U, bias, reverse):
        h = np.zeros((len(batch), hs))
        steps = []
        for t in range(X.shape[1] - 1, -1, -1) if reverse else range(X.shape[1]):
            m = mask[:, t][:, None]
            gx, gh = X[:, t] @ W + bias, h @ U
            z = _sigmoid(gx[:, :hs] + gh[:, :hs])
            r = _sigmoid(gx[:, hs : 2 * hs] + gh[:, hs : 2 * hs])
            n = np.tanh(gx[:, 2 * hs :] + r * gh[:, 2 * hs :])
            steps.append((t, h, z, r, n, gh[:, 2 * hs :], m))
            h = m * ((1.0 - z) * n + z * h) + (1.0 - m) * h
        return h, steps

    def backward(dh, steps, W, U, direction, grads, dX):
        for t, h_prev, z, r, n, ghn, m in reversed(steps):
            da_n = dh * m * (1.0 - z) * (1.0 - n * n)
            da_z = dh * m * (h_prev - n) * z * (1.0 - z)
            da_r = da_n * ghn * r * (1.0 - r)
            dgx = np.concatenate([da_z, da_r, da_n], axis=1)
            dgh = np.concatenate([da_z, da_r, da_n * r], axis=1)
            grads[f"W{direction}"] += X[:, t].T @ dgx
            grads[f"bias{direction}"] += dgx.sum(axis=0)
            grads[f"U{direction}"] += h_prev.T @ dgh
            dX[:, t] += dgx @ W.T
            dh = dh * m * z + dgh @ U.T + dh * (1.0 - m)

    hf, steps_f = scan(arrays["Wf"], arrays["Uf"], arrays["biasf"], reverse=False)
    hb, steps_b = scan(arrays["Wb"], arrays["Ub"], arrays["biasb"], reverse=True)
    H = np.concatenate([hf, hb], axis=1)
    grads = {k: np.zeros_like(v) for k, v in arrays.items()}
    logits, dH = [], np.zeros_like(H)
    for i in range(len(params.space.head_sizes)):
        logits.append(H @ arrays[f"head{i}_W"] + arrays[f"head{i}_b"])
        dlogits = _softmax(logits[-1])
        dlogits[np.arange(len(batch)), [row[i] for row in targets]] -= 1.0
        dlogits /= len(batch)
        grads[f"head{i}_W"] += H.T @ dlogits
        grads[f"head{i}_b"] += dlogits.sum(axis=0)
        dH += dlogits @ arrays[f"head{i}_W"].T
    dX = np.zeros_like(X)
    backward(dH[:, :hs], steps_f, arrays["Wf"], arrays["Uf"], "f", grads, dX)
    backward(dH[:, hs:], steps_b, arrays["Wb"], arrays["Ub"], "b", grads, dX)
    _embed_backward(dX[rows, cols], embed_cache, grads)
    return logits, grads


def relative_error(actual, reference):
    return np.abs(actual - reference).max() / max(np.abs(reference).max(), 1e-300)


class TestSubwords:
    def test_hash_deterministic(self):
        assert fnv1a64("confirmed") == fnv1a64("confirmed")
        assert fnv1a64("confirmed") != fnv1a64("confirmd")
        # Frozen value guards against platform-dependent hashing.
        assert fnv1a64("abc") == 0xE71FA2190541574B

    @given(st.lists(st.lists(st.text(max_size=7), max_size=6), max_size=4),
           st.sampled_from([1, 7, 4096]))
    @example([["İi", "😀", "", "a\x00"]], 64)
    @settings(max_examples=100, deadline=None)
    def test_bucket_ids_are_the_hashed_ngram_strings(self, rounds, bucket_count):
        # Tokens arrive over several calls, each followed by a table read.
        vocab = SubwordVocab(bucket_count)
        order: list[str] = []
        for tokens in rounds:
            for token in tokens:
                vocab.token_id(token)
                if token not in order:
                    order.append(token)
            flat, lengths, starts = vocab.table()
            for token_id, token in enumerate(order):
                wrapped = f"<{token}>"
                grams = [wrapped] + [wrapped[i : i + n] for n in range(3, 6)
                                     for i in range(len(wrapped) - n + 1)]
                assert flat[starts[token_id] : starts[token_id] + lengths[token_id]].tolist() \
                    == [reference_fnv1a64(g) % bucket_count for g in grams]

    def test_every_token_maps_to_buckets(self):
        vocab = SubwordVocab(bucket_count=64)
        assert len(vocab.buckets("a")) >= 1
        assert len(vocab.buckets("confirmed")) > 5

    def test_one_edit_variant_shares_buckets(self):
        vocab = SubwordVocab(bucket_count=2**15)
        full = set(vocab.buckets("confirmed").tolist())
        edited = set(vocab.buckets("confirmd").tolist())
        shared = len(full & edited) / min(len(full), len(edited))
        assert shared >= 0.5

    def test_identical_tokens_identical_vectors(self):
        params = init_params(tiny_config(), SCHEMA)
        sentence = FeatureSentence(("tok", "tok"), ("VAL", "VAL"))
        X, _ = _embed_batch(batch_of(sentence, params), params)
        assert X.shape == (2, params.config.embed_dim)
        assert np.allclose(X[0], X[1])

    def test_encode_stores_bucket_count_per_token(self):
        vocab = SubwordVocab(bucket_count=256)
        sentence = FeatureSentence(("confirmed", "ok", "ok"), ("ATTR", "VAL", "VAL"))
        ids = encode(sentence, vocab)
        flat, lengths, starts = vocab.table()
        assert len(ids) == len(sentence.tokens)
        assert lengths[ids].tolist() == [len(vocab.buckets(t)) for t in sentence.tokens]
        assert np.array_equal(
            np.concatenate([flat[starts[i] : starts[i] + lengths[i]] for i in ids]),
            np.concatenate([vocab.buckets(t) for t in sentence.tokens]),
        )

    def test_batch_places_tokens_by_sample_and_position(self):
        params = init_params(tiny_config(), SCHEMA)
        sentences = [FeatureSentence(tokens, ("VAL",) * len(tokens)) for tokens in
                     (("alpha", "bravo", "alpha"), ("charlie",), ("bravo", "delta"))]
        X, _ = _embed_batch([encode(s, params.vocab) for s in sentences], params)
        # Reference: each token embedded on its own, sample after sample.
        alone = [_embed_batch(batch_of(FeatureSentence((token,), ("VAL",)), params),
                              params)[0][0]
                 for s in sentences for token in s.tokens]
        assert np.array_equal(X, np.stack(alone))

    def test_token_vector_is_mean_of_bucket_rows(self):
        params = init_params(tiny_config(), SCHEMA)
        sentence = FeatureSentence(("confirmed", "ok"), ("ATTR", "VAL"))
        X, _ = _embed_batch(batch_of(sentence, params), params)
        E = params.arrays["E"]
        for i, token in enumerate(sentence.tokens):
            assert np.allclose(X[i], E[params.vocab.buckets(token)].mean(axis=0))

    @settings(max_examples=60, deadline=None)
    @given(repeating_batches(), st.sampled_from(["float32", "float64"]))
    def test_token_table_matches_per_occurrence_reference(self, drawn, dtype):
        seen, sentences = drawn
        params = init_params(tiny_config(bucket_count=32, dtype=dtype), SCHEMA)
        for token in seen:
            params.vocab.token_id(token)
        batch = [encode(s, params.vocab) for s in sentences]
        X, cache = _embed_batch(batch, params)
        # Reference: reduce every occurrence's bucket rows, not each distinct
        # token's once. (``mean`` sums in another order, so it can differ in
        # the last bit.)
        E = params.arrays["E"]
        occurrences = [params.vocab.buckets(t) for s in sentences for t in s.tokens]
        lengths = np.array([len(b) for b in occurrences])
        reference = np.add.reduceat(E[np.concatenate(occurrences)],
                                    np.cumsum(lengths) - lengths, axis=0)
        assert np.array_equal(X, reference / lengths[:, None].astype(E.dtype))

        dX = np.random.default_rng(len(seen)).standard_normal(X.shape).astype(X.dtype)
        grads = {"E": np.zeros_like(E)}
        _embed_backward(dX, cache, grads)
        assert grads["E"].dtype == E.dtype
        reference = embed_backward_reference(sentences, dX, params)
        # 1e-6, relative once a bucket's summed gradient exceeds 1: float32
        # rounding grows with the magnitude of the sum.
        tolerance = 1e-6 * max(1.0, np.abs(reference).max())
        assert np.abs(grads["E"] - reference).max() < tolerance


class TestForward:
    def test_zero_params_uniform(self):
        params = init_params(tiny_config(), SCHEMA)
        for key in params.arrays:
            params.arrays[key][:] = 0
        logits = logits_of(FeatureSentence(("tok",), ("VAL",)), params)
        for head in logits:
            assert np.allclose(head, head[0])

    def test_deterministic(self):
        params = init_params(tiny_config(), SCHEMA)
        sentence = FeatureSentence(("tok", "two"), ("VAL", "VAL"))
        a = logits_of(sentence, params)
        b = logits_of(sentence, params)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestLoss:
    def test_uniform_loss_is_sum_of_log_head_sizes(self):
        params = init_params(tiny_config(), SCHEMA)
        for key in params.arrays:
            params.arrays[key][:] = 0
        samples = make_samples(4)
        ids, targets, _ = encode_samples(samples, params)
        loss, _, _ = loss_and_grads(ids, targets, params)
        expected = sum(math.log(k) for k in params.space.head_sizes)
        assert abs(loss - expected) < 1e-5

    def test_duplicated_batch_same_mean_loss(self):
        params = init_params(tiny_config(), SCHEMA)
        samples = make_samples(4)
        ids, targets, _ = encode_samples(samples, params)
        loss_once, _, _ = loss_and_grads(ids, targets, params)
        loss_twice, _, _ = loss_and_grads(ids + ids, np.concatenate([targets, targets]), params)
        assert abs(loss_once - loss_twice) < 1e-5

    def test_gradients_match_finite_differences(self):
        for seed in (0, 1, 2):
            assert gradient_check(seed=seed) < 1e-3


class TestKernels:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=7), st.integers(0, 2**16))
    @example([4, 4, 4], 0)
    @example([7], 1)
    @example([1, 9, 3, 9, 1, 3], 2)
    def test_packed_gru_matches_padded_reference(self, lengths, seed):
        rng = np.random.default_rng(seed)
        params = init_params(tiny_config(embed_dim=3, hidden=4, bucket_count=64,
                                         dtype="float64"), SCHEMA)
        for key in params.arrays:
            params.arrays[key] = rng.standard_normal(params.arrays[key].shape) * 0.5
        words = ["alpha", "bravo", "charlie", "delta"]
        batch, targets = [], []
        for n in lengths:
            batch.append(encode(FeatureSentence(
                tuple(words[i] for i in rng.integers(len(words), size=n)), ("VAL",) * n),
                params.vocab))
            targets.append([rng.integers(k) for k in params.space.head_sizes])
        targets = np.array(targets)
        ref_logits, ref_grads = padded_gru_reference(batch, targets, params)
        _, grads, _ = loss_and_grads(batch, targets, params)
        forward_only, _ = _forward_batch(batch, params)
        for logits, reference in zip(forward_only, ref_logits):
            assert relative_error(logits, reference) < 1e-10
        assert grads.keys() == ref_grads.keys()
        for key, reference in ref_grads.items():
            assert relative_error(grads[key], reference) < 1e-10, key

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_forward_stays_in_model_dtype(self, dtype):
        params = init_params(tiny_config(bucket_count=64, dtype=dtype), SCHEMA)
        words = ["alpha", "bravo", "charlie", "delta", "echo"]
        sentences = [FeatureSentence(tuple(words[i % 5] for i in range(start, start + n)),
                                     ("VAL",) * n)
                     for start, n in ((0, 1), (2, 12), (1, 3), (4, 9))]
        batch = [encode(s, params.vocab) for s in sentences]
        for backward in (False, True):
            logits, cache = _forward_batch(batch, params, backward=backward)
            assert cache["H"].dtype == np.dtype(dtype)
            assert all(head.dtype == np.dtype(dtype) for head in logits)

    def test_embed_backward_stays_in_model_dtype(self):
        params = init_params(tiny_config(bucket_count=16), SCHEMA)
        sentences = [
            FeatureSentence(("alpha", "bravo", "alpha"), ("VAL",) * 3),
            FeatureSentence(("charlie",), ("VAL",)),
            FeatureSentence(("delta", "echo"), ("VAL",) * 2),
        ]
        batch = [encode(s, params.vocab) for s in sentences]
        X, cache = _embed_batch(batch, params)
        dX = np.random.default_rng(0).standard_normal(X.shape).astype(X.dtype)
        grads = {"E": np.zeros_like(params.arrays["E"])}
        _embed_backward(dX, cache, grads)
        assert grads["E"].dtype == np.float32

        reference = embed_backward_reference(sentences, dX, params)
        assert np.abs(grads["E"] - reference).max() < 1e-6

    def test_sigmoid_matches_logistic_without_overflow(self):
        x = np.linspace(-30, 30, 601)
        assert np.abs(_sigmoid(x) - 1 / (1 + np.exp(-x))).max() < 1e-6
        with np.errstate(all="raise"):
            for dtype in (np.float32, np.float64):
                out = _sigmoid(np.array([-1e4, 1e4], dtype=dtype))
                assert np.isfinite(out).all()
                assert out.tolist() == [0.0, 1.0]

    def test_accuracy_does_not_depend_on_sample_order(self, monkeypatch):
        samples = make_samples(24)
        params, _ = train(samples, tiny_config(epochs=3), SCHEMA)
        shuffled = [samples[i] for i in np.random.default_rng(1).permutation(len(samples))]
        monkeypatch.setattr(learner, "_CHUNK", 5)
        acc = accuracy(samples, params)
        assert 0.0 < acc < 1.0
        assert accuracy(shuffled, params) == acc

    def test_predict_cells_returns_input_order(self, monkeypatch):
        params = init_params(tiny_config(), SCHEMA)
        cells = [
            SuperCell("s", ("y", "2020-01-01")[: 1 + i % 2],
                      tuple(["bravo charlie delta echo"[: 5 * (i % 4 + 1)]] * (1 + i % 2)),
                      tuple(str(i * j) for j in range(1 + i % 2)), i)
            for i in range(9)
        ]
        assert len({len(render_feature(c).tokens) for c in cells}) > 2
        one_chunk = predict_cells(cells, params)
        monkeypatch.setattr(learner, "_CHUNK", 2)
        sorted_chunks = predict_cells(cells, params)
        for cell, a, b in zip(cells, sorted_chunks, one_chunk):
            alone = predict_cells([cell], params)[0]
            assert a.position == b.position == alone.position
            assert np.isclose(a.confidence, b.confidence)
            assert np.isclose(a.confidence, alone.confidence)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("encoder", "lstm"), ("encoder", "pooled"), ("epochs", 0), ("batch_size", 0),
        ("embed_dim", 0), ("hidden", 0), ("bucket_count", 0), ("max_width", 0), ("max_copy", -1),
        ("learning_rate", 0.0), ("learning_rate", math.inf), ("dtype", "float16"),
    ])
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value})


class TestTrain:
    def test_memorization(self):
        samples = make_samples(10)
        params, curve = train(samples, tiny_config(epochs=200), SCHEMA)
        assert any(p.train_acc == 1.0 for p in curve)
        assert curve[-1].train_acc == 1.0
        assert accuracy(samples, params) == 1.0

    def test_initial_loss_near_uniform(self):
        samples = make_samples(10)
        params, curve = train(samples, tiny_config(epochs=1), SCHEMA)
        expected = sum(math.log(k) for k in params.space.head_sizes)
        assert abs(curve[0].loss - expected) / expected < 0.10

    def test_same_seed_identical_params(self):
        samples = make_samples(10)
        a, _ = train(samples, tiny_config(epochs=5), SCHEMA)
        b, _ = train(samples, tiny_config(epochs=5), SCHEMA)
        for key in a.arrays:
            assert np.array_equal(a.arrays[key], b.arrays[key])

    def test_empty_training_set_rejected(self):
        with pytest.raises(EmptyEvalSet):
            train([], tiny_config(), SCHEMA)

    def test_finite_params(self):
        samples = make_samples(10)
        params, _ = train(samples, tiny_config(epochs=10), SCHEMA)
        assert params.finite()

    def test_diverging_fit_raises(self):
        # A step this large overflows the next batch's forward pass; the
        # overflow itself is expected, so numpy's warnings are held here.
        config = tiny_config(learning_rate=1e300, epochs=1, batch_size=4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite parameters after epoch 0"):
                train(make_samples(10), config, SCHEMA)

    def test_fit_runs_no_forward_only_pass(self, monkeypatch):
        def forward_only(encoded, params):
            raise AssertionError("train ran a forward-only pass")

        monkeypatch.setattr(learner, "_head_choices", forward_only)
        _, curve = train(make_samples(10), tiny_config(epochs=2), SCHEMA)
        assert len(curve) == 2

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_train_acc_is_the_running_minibatch_accuracy(self, dtype):
        # 13 samples in batches of 4: the last batch of each epoch has one.
        samples = make_samples(13)
        config = tiny_config(dtype=dtype, epochs=6, batch_size=4)
        trained, curve = train(samples, config, SCHEMA)

        # Replay: each batch is scored on its own forward-only logits, one
        # sample at a time over its live heads, before its Adam update.
        params = init_params(config, SCHEMA)
        ids, targets, _ = encode_samples(samples, params)
        rng = np.random.default_rng(config.seed + 101)
        state = {"t": 0, "m": {k: np.zeros_like(v) for k, v in params.arrays.items()},
                 "v": {k: np.zeros_like(v) for k, v in params.arrays.items()}}
        replayed = []
        for _ in range(config.epochs):
            order = rng.permutation(len(ids))
            hits = 0
            for start in range(0, len(ids), config.batch_size):
                rows = order[start : start + config.batch_size]
                batch = [ids[i] for i in rows]
                logits, _ = _forward_batch(batch, params)
                for row, i in enumerate(rows):
                    width = len(samples[i].label.attributes)
                    hits += all(logits[head][row].argmax() == targets[i][head]
                                for head in params.space.live_heads(width))
                _, grads, _ = loss_and_grads(batch, targets[rows], params)
                learner._adam_step(params, grads, config.learning_rate, state)
            replayed.append(hits / len(ids))
        assert [p.train_acc for p in curve] == replayed
        assert len(set(replayed)) > 1
        for key, array in trained.arrays.items():
            assert np.array_equal(array, params.arrays[key])


# Two key slots: an open date slot and a closed state slot whose values go
# through a synonym dictionary, so a COPY of "az" resolves to "arizona",
# outside the closed domain.
KEYED_SCHEMA = TargetSchema(
    attributes=("date", "state", "cases", "deaths", "tests"),
    key_attributes=("date", "state"),
    key_domains={"date": KeyDomain((), open=True),
                 "state": KeyDomain(("alabama", "alaska"), open=False)},
)
KEYED_KINDS = [CanonKind("date"), CanonKind("dict", "states")]
STATES = {"states": [["alabama", "al"], ["alaska", "ak"], ["arizona", "az"]]}
# Few components, so cells share them; up to three keys, so COPY(2) can be
# out of range. "AL", "al" and " al" differ only in case or whitespace, so
# they tie in canonical order, and "New York" is two tokens.
COMPONENTS = ["1/2/2020", "2020-01-02", "Jan 3, 2020", "AL", "al", " al", "Alaska", "az", "tx",
              "New York"]
ATTRIBUTES = ["Cases", "cases ", "deaths", "Tests", "x", "New Cases"]
VALUES = ["7", " 7", "New York", "new york ", "x y z", " "]


def predict_reference(cells, params):
    """``predict_cells`` computed cell by cell: one decode (whose mode is
    the schema's rule for the cell's key count), one resolution with no
    shared table, and one ``np.prod`` over the live heads each."""
    encoded = [encode(render_feature(cell), params.vocab) for cell in cells]
    choices, chosen = learner._head_choices(encoded, params)
    closed = params.schema.closed_values()
    out = []
    for cell, row, probs in zip(cells, choices, chosen):
        position, out_of_range, outside = resolve_position(
            params.space.decode(row, cell.width, len(cell.keys)), cell.sorted_keys(),
            params.key_kinds, params.synonyms, closed)
        confidence = float(np.prod(probs[params.space.live_heads(cell.width)]))
        out.append(learner.Prediction(position, confidence, out_of_range, outside))
    return out


@st.composite
def keyed_cells(draw, max_width):
    """Cells of one to three keys drawn from ``COMPONENTS`` (some with the
    key set of the cell before them in another order) and one to
    ``max_width + 1`` attributes from ``ATTRIBUTES``, whose values are
    drawn from ``VALUES`` or unique to the cell."""
    cells = []
    for row in range(draw(st.integers(9, 24))):
        if cells and draw(st.booleans()):
            keys = draw(st.permutations(cells[-1].keys))
        else:
            keys = draw(st.lists(st.sampled_from(COMPONENTS), min_size=1, max_size=3,
                                 unique=True))
        width = draw(st.integers(1, max_width + 1))
        attrs = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=width, max_size=width))
        values = draw(st.lists(st.sampled_from([*VALUES, str(row)]), min_size=width,
                               max_size=width))
        cells.append(SuperCell("s", tuple(keys), tuple(attrs), tuple(values), row))
    return cells


class TestPredict:
    @settings(max_examples=40, deadline=None)
    @given(cells=keyed_cells(max_width=2), seed=st.integers(0, 2**16),
           scale=st.sampled_from([1.0, 4.0]), dtype=st.sampled_from(["float32", "float64"]))
    def test_predictions_equal_the_per_cell_reference(self, cells, seed, scale, dtype):
        config = tiny_config(dtype=dtype, seed=seed, max_copy=3, max_width=2)
        params = init_params(config, KEYED_SCHEMA, KEYED_KINDS, STATES)
        for i in range(len(params.space.head_sizes)):
            params.arrays[f"head{i}_W"] *= scale
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(learner, "_CHUNK", 4)
            got = predict_cells(cells, params)
            assert got == predict_reference(cells, params)
        assert all(type(p.confidence) is float for p in got)

    def test_each_component_is_canonicalized_once_per_call(self, monkeypatch):
        # Every cell's position is COPY(0) for the date and COPY(1) for the
        # state, so each cell resolves two components.
        params = init_params(tiny_config(max_copy=2, max_width=1), KEYED_SCHEMA,
                             KEYED_KINDS, STATES)
        for i in range(len(params.space.head_sizes)):
            params.arrays[f"head{i}_W"][:] = 0
        for slot in range(2):
            params.arrays[f"head{slot}_b"][
                params.space.key_vocabs[slot].index(copy_marker(slot))] = 10.0
        params.arrays["head2_b"][params.space.attr_vocab.index("cases")] = 10.0
        cells = [SuperCell("s", (date, state), ("Cases",), (str(i),), i)
                 for i, (date, state) in enumerate(
                     [(d, s) for d in ("1/2/2020", "2020-01-03") for s in ("AL", "ak", "al")]
                     * 3)]
        calls = []
        canonicalize = mapping.canonicalize

        def counted(value, kind, dictionaries=None):
            calls.append((value, kind))
            return canonicalize(value, kind, dictionaries)

        monkeypatch.setattr(mapping, "canonicalize", counted)
        predictions = predict_cells(cells, params)
        assert len(calls) == len(set(calls)) == 5
        assert set(calls) == ({(c.keys[0], KEYED_KINDS[0]) for c in cells}
                              | {(c.keys[1], KEYED_KINDS[1]) for c in cells})
        assert {p.position.keys for p in predictions} == {
            ("2020-01-02", "alabama"), ("2020-01-02", "alaska"),
            ("2020-01-03", "alabama"), ("2020-01-03", "alaska")}
        # The table lives for one call: the next call canonicalizes again.
        predict_cells(cells[:1], params)
        assert len(calls) == 7

    def test_each_text_is_tokenized_once_per_call(self, monkeypatch):
        params = init_params(tiny_config(max_copy=3, max_width=2), KEYED_SCHEMA, KEYED_KINDS,
                             STATES)
        cells = [SuperCell("s", keys, attrs, values, i) for i, (keys, attrs, values) in enumerate([
            (("AL", "1/2/2020"), ("Cases", "deaths"), ("7", "New York")),
            (("1/2/2020", "AL"), ("cases ", "deaths"), ("7", " 7")),
            (("al", "New York"), ("Cases",), ("AL",)),
            (("AL", "1/2/2020"), ("New Cases", "x"), ("new york ", "7")),
        ] * 3)]
        calls = []
        tokenize = learner.tokenize

        def counted(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(learner, "tokenize", counted)
        predictions = predict_cells(cells, params)
        texts = {text for c in cells for text in (*c.keys, *c.attributes, *c.values)}
        assert len(calls) == len(set(calls)) == len(texts) == 12
        assert set(calls) == texts
        assert predictions == predict_reference(cells, params)
        # The table lives for one call: the next call tokenizes again.
        predict_cells(cells[:1], params)
        assert len(calls) == len(texts) + 6

    def test_a_cell_with_no_token_is_rejected(self):
        params = init_params(tiny_config(), SCHEMA)
        blank = SuperCell("s", (), (" ",), ("",), 0)
        with pytest.raises(ValueError):
            render_feature(blank)
        with pytest.raises(ValueError, match="renders no token"):
            predict_cells([SuperCell("s", ("x",), ("a",), ("1",), 0), blank], params)

    def test_memorized_sample_replayed(self):
        samples = make_samples(10)
        params, _ = train(samples, tiny_config(epochs=200), SCHEMA)
        cell = SuperCell("s", ("x",), ("alpha",), ("0",), 0)
        expected = [
            s.label for s in samples
            if s.feature == render_feature(cell)
        ]
        if expected:
            prediction = predict_cells([cell], params)[0]
            assert prediction.position.keys == expected[0].keys

    def test_probabilities_normalized_and_consistent(self):
        samples = make_samples(10)
        params, _ = train(samples, tiny_config(epochs=5), SCHEMA)
        cell = SuperCell("s", ("x",), ("alpha",), ("0",), 0)
        prediction = predict_cells([cell], params)[0]
        # Confidence is the product, over the live heads, of the top class's
        # probability in a softmax of the forward pass's logits.
        probs = [np.exp(l - l.max()) / np.exp(l - l.max()).sum()
                 for l in logits_of(render_feature(cell), params)]
        live = params.space.live_heads(cell.width)
        assert np.isclose(prediction.confidence, np.prod([probs[h].max() for h in live]),
                          rtol=1e-5)
        assert 0.0 < prediction.confidence <= 1.0

    def test_discard_after_discard_training(self):
        samples = make_samples(10)
        q = SCHEMA.q
        noise = [
            LabeledSample(
                FeatureSentence((f"zz{i}", f"qq{i}", str(i)), ("KEY", "ATTR", "VAL")),
                discard_position(q, 1),
                ("noise", i),
            )
            for i in range(10)
        ]
        params, _ = train(samples + noise, tiny_config(epochs=200), SCHEMA)
        cell = SuperCell("noise", ("zz3",), ("qq3",), ("3",), 3)
        prediction = predict_cells([cell], params)[0]
        assert prediction.position.is_discard

    def test_batch_composition_does_not_change_predictions(self, monkeypatch):
        params = init_params(tiny_config(), SCHEMA)
        short = SuperCell("s", ("x",), ("alpha",), ("0",), 0)
        longer = [
            SuperCell("s", ("y", f"2020-01-0{i}"), ("bravo charlie", "delta"),
                      ("1 2 3 4", "echo fox alpha"), i)
            for i in range(1, 4)
        ]
        alone = predict_cells([short], params)[0]
        in_batches = [predict_cells(longer + [short] + longer, params)[len(longer)]]
        monkeypatch.setattr(learner, "_CHUNK", 1)
        in_batches.append(predict_cells(longer + [short], params)[-1])
        for in_batch in in_batches:
            assert in_batch.position == alone.position
            assert in_batch.copy_out_of_range == alone.copy_out_of_range
            assert np.isclose(in_batch.confidence, alone.confidence)

    def test_predict_and_accuracy_share_the_argmax_rule(self):
        # Two attribute logits 1e-9 apart tie in float32 after the softmax
        # (exp(-1e-9) rounds to 1): the larger logit must still win, in
        # predict_cells and in accuracy alike.
        params = init_params(tiny_config(max_width=1), SCHEMA)
        for i in range(len(params.space.head_sizes)):
            params.arrays[f"head{i}_W"][:] = 0
        attr_bias = params.arrays["head1_b"]
        attr_bias[:] = -10.0
        attr_bias[params.space.attr_vocab.index("a")] = 0.0
        attr_bias[params.space.attr_vocab.index("b")] = 1e-9
        params.arrays["head0_b"][params.space.key_vocabs[0].index("x")] = 10.0
        cell = SuperCell("s", ("x",), ("alpha",), ("1",), 0)
        assert predict_cells([cell], params)[0].position == TargetPosition(
            ("x",), ("b",), AggMode.REPLACE)
        for attr, expected in (("a", 0.0), ("b", 1.0)):
            label = TargetPosition(("x",), (attr,), AggMode.REPLACE)
            assert accuracy([LabeledSample(render_feature(cell), label, ("s", 0))],
                            params) == expected

    def test_mode_is_the_schema_rule_for_the_cell(self):
        # One hand-set COPY-only position: a cell with a key component more
        # than the position's three slots rolls up by SUM, a cell with three
        # takes the schema's mode for its attribute.
        schema = TargetSchema(("date", "state", "country", "cases"),
                              ("date", "state", "country"), agg_modes={"cases": AggMode.MAX})
        params = init_params(tiny_config(max_copy=4, max_width=1), schema)
        for i in range(len(params.space.head_sizes)):
            params.arrays[f"head{i}_W"][:] = 0
        for slot in range(3):
            params.arrays[f"head{slot}_b"][
                params.space.key_vocabs[slot].index(copy_marker(slot))] = 10.0
        params.arrays["head3_b"][params.space.attr_vocab.index("cases")] = 10.0
        state = SuperCell("s", ("2020-01-02", "arizona", "us"), ("cases",), ("7",), 0)
        county = SuperCell("s", (*state.keys, "pima"), ("cases",), ("3",), 1)
        predictions = predict_cells([county, state, county], params)
        assert [p.position.agg_mode for p in predictions] == [
            AggMode.SUM, AggMode.MAX, AggMode.SUM]
        assert predictions == predict_reference([county, state, county], params)
        assert len(params.space.head_sizes) == schema.q + 1  # no aggregation head

    def test_copy_resolution_in_predict_cells(self):
        # A trained COPY prediction resolves against the cell's keys through
        # the stored canonicalizers.
        schema = TargetSchema(
            attributes=("k", "a"),
            key_attributes=("k",),
            key_domains={"k": KeyDomain((), open=True)},
        )
        samples = []
        for i, key in enumerate(["2020-01-01", "2020-01-02", "2020-01-03"] * 3):
            cell = SuperCell("s", (key,), ("metric",), (str(i),), i)
            label = TargetPosition((copy_marker(0),), ("a",), AggMode.REPLACE)
            samples.append(LabeledSample(render_feature(cell), label, ("s", i)))
        config = tiny_config(epochs=150, max_copy=2, max_width=1)
        params, _ = train(samples, config, schema, [CanonKind("date")])
        cell = SuperCell("s", ("1/4/2020",), ("metric",), ("9",), 0)
        prediction = predict_cells([cell], params)[0]
        assert prediction.position.keys == ("2020-01-04",)


class TestIntegrate:
    def test_values_past_max_width_are_counted(self):
        params = init_params(tiny_config(max_width=1), SCHEMA)
        for key in params.arrays:
            params.arrays[key][:] = 0
        # Constant model: key "x", attribute "a"; the schema's mode is REPLACE.
        params.arrays["head0_b"][params.space.key_vocabs[0].index("x")] = 10.0
        params.arrays["head1_b"][params.space.attr_vocab.index("a")] = 10.0
        cell = SuperCell("s", ("x",), ("alpha", "bravo"), ("1", "2"), 0)
        table = integrate_predictions([cell], params)
        assert table.schema is params.schema
        assert table.cells() == {("x", "a"): "1"}
        report = table.report
        assert report.cells_written + report.cells_skipped == cell.width

    def test_mode_conflict_counts_each_value_once(self, monkeypatch):
        # A width-2 REPLACE cell whose second attribute meets a SUM cell:
        # three values, two written and one skipped.
        positions = [TargetPosition(("x",), ("b",), AggMode.SUM),
                     TargetPosition(("x",), ("a", "b"), AggMode.REPLACE)]
        monkeypatch.setattr(learner, "predict_cells", lambda cells, params: [
            learner.Prediction(pos, 1.0) for pos in positions])
        cells = [SuperCell("s", ("x",), ("bravo",), ("1",), 0),
                 SuperCell("s", ("x",), ("alpha", "bravo"), ("2", "3"), 1)]
        table = integrate_predictions(cells, init_params(tiny_config(), SCHEMA))
        assert (table.report.cells_written, table.report.cells_skipped) == (2, 1)


class TestAccuracy:
    def test_count_equals_the_per_sample_loop(self):
        # Targets are the model's own choices, with a head past the
        # sample's width changed (still correct) or a live head changed.
        params = init_params(tiny_config(max_width=3), KEYED_SCHEMA)
        sizes = params.space.head_sizes
        encoded = [encode(FeatureSentence(("tok", str(i)), ("ATTR", "VAL")), params.vocab)
                   for i in range(36)]
        widths = [1 + i // 3 % 3 for i in range(36)]
        choices, _ = learner._head_choices(encoded, params)
        targets = choices.copy()
        for i, (width, row) in enumerate(zip(widths, choices)):
            live = params.space.live_heads(width)
            dead = KEYED_SCHEMA.q + width if width < 3 else None
            head = (None, dead, live[i % len(live)])[i % 3]
            if head is not None:
                targets[i, head] = (row[head] + 1) % sizes[head]
        expected = sum(
            int((row[live] == target[live]).all())
            for width, target, row in zip(widths, targets, choices)
            for live in [params.space.live_heads(width)]
        ) / len(encoded)
        assert 0 < expected < 1
        live = params.space.live_mask(widths)
        assert _accuracy_encoded(choices, targets, live) / len(encoded) == expected

    def test_perfect_model(self):
        samples = make_samples(10)
        params, _ = train(samples, tiny_config(epochs=200), SCHEMA)
        assert accuracy(samples, params) == 1.0

    def test_all_discard_model_scores_discard_fraction(self):
        params = init_params(tiny_config(), SCHEMA)
        for key in params.arrays:
            params.arrays[key][:] = 0  # every head picks class 0: NULL
        real = make_samples(6)
        discards = [
            LabeledSample(
                FeatureSentence(("n", str(i)), ("ATTR", "VAL")),
                discard_position(SCHEMA.q, 1),
                ("n", i),
            )
            for i in range(4)
        ]
        assert accuracy(real + discards, params) == 0.4

    def test_empty_eval_set(self):
        params = init_params(tiny_config(), SCHEMA)
        with pytest.raises(EmptyEvalSet):
            accuracy([], params)

    def test_metric_is_mean_of_indicators(self):
        samples = make_samples(10)
        params, _ = train(samples, tiny_config(epochs=30), SCHEMA)
        per_sample = [accuracy([s], params) for s in samples]
        assert abs(accuracy(samples, params) - sum(per_sample) / len(per_sample)) < 1e-9


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        samples = make_samples(10)
        params, _ = train(
            samples, tiny_config(epochs=3), SCHEMA,
            key_kinds=[CanonKind("date")],
            dictionaries={"d": [["a", "b"]]},
        )
        path = tmp_path / "model.npz"
        params.save(path)
        loaded = ModelParams.load(path)
        assert set(loaded.arrays) == set(params.arrays)
        for key in params.arrays:
            assert np.array_equal(loaded.arrays[key], params.arrays[key])
        assert asdict(loaded.config) == asdict(params.config)
        assert loaded.schema.to_dict() == params.schema.to_dict()
        assert [k.render() for k in loaded.key_kinds] == ["date"]
        assert loaded.dictionaries == {"d": [["a", "b"]]}

    def test_unknown_format_version_rejected(self, tmp_path):
        samples = make_samples(4)
        params, _ = train(samples, tiny_config(epochs=1), SCHEMA)
        path = tmp_path / "model.npz"
        params.save(path)
        import json as json_mod
        import numpy as np_mod

        with np_mod.load(path) as data:
            meta = json_mod.loads(bytes(data["__meta__"]).decode())
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
        meta["format_version"] = 99
        with open(path, "wb") as fh:
            np_mod.savez(
                fh,
                __meta__=np_mod.frombuffer(
                    json_mod.dumps(meta).encode(), dtype=np_mod.uint8
                ),
                **arrays,
            )
        with pytest.raises(ValueError):
            ModelParams.load(path)

    def test_default_config_model_is_under_a_megabyte(self, tmp_path):
        # The storage gate of acceptance criterion 8.
        init_params(TrainConfig(), KEYED_SCHEMA).save(tmp_path / "model.npz")
        assert (tmp_path / "model.npz").stat().st_size < 1_000_000

    def test_loaded_model_predicts_identically(self, tmp_path):
        samples = make_samples(10)
        params, _ = train(samples, tiny_config(epochs=5), SCHEMA)
        path = tmp_path / "model.npz"
        params.save(path)
        loaded = ModelParams.load(path)
        cells = [SuperCell("s", ("x",), ("alpha",), ("0",), 0)]
        a = predict_cells(cells, params)[0]
        b = predict_cells(cells, loaded)[0]
        assert a.position == b.position

    def test_grown_vocab_changes_no_prediction(self, tmp_path):
        params, _ = train(make_samples(10), tiny_config(epochs=3), SCHEMA)
        path = tmp_path / "model.npz"
        params.save(path)
        cells = [SuperCell("s", ("y", "x"), ("bravo", "alpha"), ("7", "alpha 3"), i)
                 for i in range(3)]
        others = [SuperCell("t", ("2020-01-02",), ("echo fox",), ("11",), 0)]
        fresh, grown = ModelParams.load(path), ModelParams.load(path)
        predict_cells(others, grown)
        expected = predict_cells(cells, fresh)
        assert [(p.position, p.confidence) for p in predict_cells(cells, grown)] == [
            (p.position, p.confidence) for p in expected]
        assert grown.vocab.token_id("bravo") != fresh.vocab.token_id("bravo")
        # The vocab is a cache of the predict path, never part of the model.
        fresh.save(tmp_path / "fresh.npz")
        grown.save(tmp_path / "grown.npz")
        assert (tmp_path / "fresh.npz").read_bytes() == (tmp_path / "grown.npz").read_bytes()
