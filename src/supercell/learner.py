"""Subword-embedding multi-head classifier, trained from scratch in numpy.

The model maps a feature sentence to one class per head: one head per
target key attribute (domain values, NULL, COPY(i), WILDCARD), one head per
cell slot (target attributes plus NULL), and one aggregation-mode head.
Tokens embed as the mean of their character n-gram bucket rows, so a token
and its one-edit or renamed variant land on overlapping buckets; the
encoder is a bidirectional gated recurrent network. All gradients are
analytic and verified against central finite differences.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assemble import AggModeConflict, TargetTable
from .canon import CanonKind, DictionaryStore, SynonymDictionary
from .core import (
    DataError,
    FeatureSentence,
    KeyDomain,
    LabelSpace,
    MalformedRecord,
    Record,
    SuperCell,
    TargetPosition,
    TargetSchema,
    feature_texts,
    ngram_hashes,
    open_file,
    runs,
    tokenize,
)
from .mapping import LabeledSample, copy_slots, resolve_position


class EmptyEvalSet(DataError):
    pass


class CellTooWide(DataError):
    """Labeled samples wider than the model's ``max_width`` attribute slots."""


class SubwordVocab:
    """The token table: character n-gram hashing for tokens.

    Each token contributes the character 3- to 5-grams of "<token>" with
    boundary markers (the subword sizes of Bojanowski et al. 2017), plus
    one whole-token bucket, all hashed into ``bucket_count`` buckets. Every
    token therefore maps to at least one bucket and out-of-vocabulary
    tokens need no special handling.

    A token gets an int id the first time it is seen; ``table()`` holds the
    bucket ids of every token so far, concatenated in id order, with each
    token's bucket count and first index; it hashes the n-grams of every
    token that arrived since its last call in one pass. Ids depend only on
    the order tokens arrive, never on the embedding, so a grown table
    changes no token's vector.
    """

    def __init__(self, bucket_count: int):
        self.bucket_count = bucket_count
        self._ids: dict[str, int] = {}
        self._new: list[str] = []  # tokens not yet in the table
        self._flat = np.zeros(0, dtype=np.int64)
        self._lengths = np.zeros(0, dtype=np.int64)
        self._starts = np.zeros(0, dtype=np.int64)

    def token_id(self, token: str) -> int:
        token_id = self._ids.get(token)
        if token_id is None:
            token_id = self._ids[token] = len(self._ids)
            self._new.append(token)
        return token_id

    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(flat bucket ids, bucket count per token, first flat index per token)."""
        if self._new:
            wrapped = [f"<{token}>" for token in self._new]
            n_chars = np.fromiter(map(len, wrapped), np.int64, len(wrapped))
            # Each token's buckets: the whole wrapped token, then its 3-, 4-
            # and 5-grams in position order; a stable sort by token gathers them.
            parts = [(np.arange(len(wrapped)), np.zeros(len(wrapped), np.int64), n_chars)]
            for n in range(3, 6):
                token, offset = runs(np.maximum(n_chars - n + 1, 0))
                parts.append((token, offset, np.full(len(token), n)))
            token, offset, width = map(np.concatenate, zip(*parts))
            order = np.argsort(token, kind="stable")
            hashes = ngram_hashes(wrapped, token[order], offset[order], width[order])
            lengths = np.bincount(token, minlength=len(wrapped))
            self._flat = np.concatenate(
                [self._flat, (hashes % np.uint64(self.bucket_count)).astype(np.int64)])
            self._lengths = np.concatenate([self._lengths, lengths])
            self._starts = np.cumsum(self._lengths) - self._lengths
            self._new = []
        return self._flat, self._lengths, self._starts

    def buckets(self, token: str) -> np.ndarray:
        token_id = self.token_id(token)
        flat, lengths, starts = self.table()
        return flat[starts[token_id] : starts[token_id] + lengths[token_id]]


@dataclass
class TrainConfig(Record):
    """Architecture and optimization knobs; the seed fixes every output."""

    encoder: str = "recurrent"  # the one encoder; model headers carry it
    embed_dim: int = 32
    hidden: int = 48
    bucket_count: int = 4096
    max_copy: int = 6
    max_width: int = 4
    learning_rate: float = 3e-3
    batch_size: int = 128
    epochs: int = 12
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.encoder != "recurrent":
            raise ValueError(f"unknown encoder {self.encoder!r}")
        for name in ("epochs", "batch_size", "embed_dim", "hidden", "bucket_count", "max_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if self.max_copy < 0:
            raise ValueError(f"max_copy must be at least 0, got {self.max_copy!r}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")


@dataclass
class ModelParams:
    """Trained parameters plus everything needed to predict afresh:
    the schema-derived label space, per-slot canonicalization kinds for COPY
    resolution, and the synonym dictionaries those kinds reference."""

    config: TrainConfig
    schema: TargetSchema
    key_kinds: list[CanonKind]
    arrays: dict[str, np.ndarray]
    dictionaries: dict[str, list[list[str]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.vocab = SubwordVocab(self.config.bucket_count)
        self.space = LabelSpace(self.schema, self.config.max_copy, self.config.max_width)
        self.synonyms: DictionaryStore = {
            name: SynonymDictionary(name, groups) for name, groups in self.dictionaries.items()
        }

    def finite(self) -> bool:
        return all(np.isfinite(a).all() for a in self.arrays.values())

    def save(self, path: str | Path) -> None:
        meta = ModelMeta(1, self.config, self.schema, self.key_kinds, self.dictionaries)
        header = np.frombuffer(json.dumps(meta.to_dict()).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=header, **self.arrays)

    @staticmethod
    def load(path: str | Path) -> "ModelParams":
        """Read a model file; one that ``save`` did not write (also one whose
        arrays differ in name, shape or dtype from ``_array_table`` of its
        header), or a path ``open_file`` rejects, raises MalformedRecord
        naming it."""
        with open_file(path, "rb") as fh:
            try:
                with np.load(fh) as data:
                    meta = ModelMeta.from_json(bytes(data["__meta__"]).decode())
                    arrays = {k: data[k] for k in data.files if k != "__meta__"}
                shapes = {name: shape for name, shape, _ in _array_table(meta.config, meta.schema)}
                dtype = np.dtype(meta.config.dtype)
                missing = sorted(shapes.keys() - arrays.keys())
                odd = sorted(f"{k} {a.dtype}{a.shape}" for k, a in arrays.items()
                             if (a.shape, a.dtype) != (shapes.get(k), dtype))
                if missing or odd:
                    raise ValueError(f"arrays unlike the header's {dtype} model: "
                                     f"missing {missing}, unexpected {odd}")
                return ModelParams(meta.config, meta.schema, meta.key_kinds, arrays,
                                   meta.dictionaries)
            except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
                raise MalformedRecord(f"{path}: {type(exc).__name__}: {exc}") from exc


@dataclass(frozen=True)
class ModelMeta(Record):
    """The JSON header of a model file, stored as its ``__meta__`` array."""

    format_version: int
    config: TrainConfig
    schema: TargetSchema
    key_kinds: list[CanonKind]
    dictionaries: dict[str, list[list[str]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.format_version != 1:
            raise ValueError(f"unsupported model file format_version {self.format_version!r}")


def _array_table(
    config: TrainConfig, schema: TargetSchema
) -> list[tuple[str, tuple[int, ...], float | None]]:
    """Every array of a model: its name, its shape, and the scale of its
    standard-normal draw (None for zeros), in the order ``init_params``
    draws them."""
    d, h = config.embed_dim, config.hidden
    table = [("E", (config.bucket_count, d), 0.1)]
    for direction in ("f", "b"):
        table += [(f"W{direction}", (d, 3 * h), 1.0 / np.sqrt(d)),
                  (f"U{direction}", (h, 3 * h), 1.0 / np.sqrt(h)),
                  (f"bias{direction}", (3 * h,), None)]
    h_total = 2 * h
    for i, size in enumerate(LabelSpace(schema, config.max_copy, config.max_width).head_sizes):
        table += [(f"head{i}_W", (h_total, size), 1.0 / np.sqrt(h_total)),
                  (f"head{i}_b", (size,), None)]
    return table


def init_params(
    config: TrainConfig,
    schema: TargetSchema,
    key_kinds: list[CanonKind] | None = None,
    dictionaries: dict[str, list[list[str]]] | None = None,
) -> ModelParams:
    rng = np.random.default_rng(config.seed)
    dtype = np.dtype(config.dtype)
    arrays = {
        name: np.zeros(shape, dtype=dtype) if scale is None
        else (rng.standard_normal(shape) * scale).astype(dtype)
        for name, shape, scale in _array_table(config, schema)
    }
    kinds = key_kinds or [CanonKind("none")] * schema.q
    return ModelParams(config, schema, list(kinds), arrays, dict(dictionaries or {}))


def encode(sentence: FeatureSentence, vocab: SubwordVocab) -> np.ndarray:
    """The sentence's token ids into ``vocab``."""
    return np.array([vocab.token_id(tok) for tok in sentence.tokens], dtype=np.int64)


def encode_samples(
    samples: list[LabeledSample], params: ModelParams
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """A labeled set as arrays: each sample's token ids, the ``(samples,
    heads)`` class ids of its ``LabelSpace.render`` rows, and the matching
    ``LabelSpace.live_mask``."""
    max_width = params.config.max_width
    widths = [len(s.label.attributes) for s in samples]
    wide = [w for w in widths if w > max_width]
    if wide:
        raise CellTooWide(f"{len(wide)} samples are wider than max_width {max_width} "
                          f"(widest {max(wide)})")
    targets = np.array([params.space.render(s.label) for s in samples], dtype=np.int64)
    ids = [encode(s.feature, params.vocab) for s in samples]
    return ids, targets, params.space.live_mask(widths)


def _embed_batch(batch: list[np.ndarray], params: ModelParams):
    """Every token of a batch (one token-id array per sample) as one
    ``(tokens, d)`` array, sample after sample, with a cache for the
    embedding backward.

    Each token vector is the mean of the token's subword bucket rows. Only
    the batch's distinct tokens are reduced, then indexed back to every
    occurrence; each reduction sums the same rows in the same order, so
    the vectors do not depend on which other tokens share the batch."""
    E = params.arrays["E"]
    distinct, inverse = np.unique(np.concatenate(batch), return_inverse=True)
    flat, token_lengths, starts = params.vocab.table()
    lengths = token_lengths[distinct]
    offsets = np.cumsum(lengths) - lengths  # each distinct token's first row in `buckets`
    buckets = flat[np.repeat(starts[distinct] - offsets, lengths) + np.arange(lengths.sum())]
    token_vecs = np.add.reduceat(E[buckets], offsets, axis=0) / lengths[:, None].astype(E.dtype)
    return token_vecs[inverse], {"buckets": buckets, "lengths": lengths, "inverse": inverse}


def _embed_backward(dX: np.ndarray, cache: dict, grads: dict) -> None:
    """Sum each distinct token's gradient over its occurrences (the rows
    of ``dX``), then scatter it, split evenly, onto its bucket rows.

    Stays in the model dtype, and both sums go through flat views
    (``token * d + column``, ``bucket * d + column``): ``np.add.at`` is
    several times faster on one 1-D index than on row indices into a 2-D
    array."""
    lengths = cache["lengths"]
    d = dX.shape[1]
    columns = np.arange(d)
    dtok = np.zeros((len(lengths), d), dtype=dX.dtype)
    np.add.at(dtok.reshape(-1), (cache["inverse"][:, None] * d + columns).reshape(-1),
              dX.reshape(-1))
    dtok /= lengths[:, None].astype(dX.dtype)
    contrib = np.repeat(dtok, lengths, axis=0)
    flat_index = cache["buckets"][:, None] * d + columns
    np.add.at(grads["E"].reshape(-1), flat_index.reshape(-1), contrib.reshape(-1))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # The tanh form cannot overflow, so no split on the sign of x.
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


_GRU_ACTS = ("h_prev", "z", "r", "n", "gh_n")


def _gru_scan(Xp: np.ndarray, live: list[int], W, U, bias, reverse: bool, keep: bool):
    """Gated recurrent scan over one direction of a packed batch.

    ``Xp`` holds the batch's tokens time-major, with its rows sorted
    longest first: step ``t`` covers the first ``live[t]`` rows, and their
    tokens are the ``live[t]`` packed rows from ``sum(live[:t])`` on. A row
    that has ended is simply not updated, so no padding is computed, and
    the reverse direction walks the same steps from the last. Returns each
    sorted row's final state and, when ``keep``, the activations the
    backward pass reads, one contiguous packed array each."""
    h_size = U.shape[0]
    starts = (np.cumsum(live) - live).tolist()
    gates = [slice(i * h_size, (i + 1) * h_size) for i in range(3)]
    gx_z, gx_r, gx_n = (Xp @ W[:, g] + bias[g] for g in gates)  # every token's projection
    acts = ({name: np.empty((len(Xp), h_size), dtype=Xp.dtype) for name in _GRU_ACTS}
            if keep else None)
    h = np.zeros((live[0], h_size), dtype=Xp.dtype)
    for t in range(len(live) - 1, -1, -1) if reverse else range(len(live)):
        rows = slice(starts[t], starts[t] + live[t])
        h_k = h[: live[t]]
        gh = h_k @ U
        if keep:
            acts["h_prev"][rows] = h_k
            z, r, n, gh_n = (acts[name][rows] for name in _GRU_ACTS[1:])
            gh_n[...] = gh[:, 2 * h_size :]
        else:
            z, r, n, gh_n = None, None, None, gh[:, 2 * h_size :]
        z = _sigmoid(np.add(gx_z[rows], gh[:, :h_size], out=z), out=z)
        r = _sigmoid(np.add(gx_r[rows], gh[:, h_size : 2 * h_size], out=r), out=r)
        n = np.multiply(r, gh_n, out=n)
        n += gx_n[rows]
        np.tanh(n, out=n)
        h_k -= n  # h <- (1 - z) * n + z * h
        h_k *= z
        h_k += n
    return h, acts


def _gru_backward(dh: np.ndarray, acts: dict, live: list[int], reverse: bool, Xp: np.ndarray,
                  W, U, grads_W, grads_U, grads_b) -> np.ndarray:
    """Backward through one direction's packed scan; returns the gradient
    of the packed tokens.

    Only ``dgh @ U.T`` runs step by step: the gate factors that do not
    depend on ``dh`` are taken over all tokens first, and the weight, bias
    and token gradients are one product each after the loop."""
    h_size = U.shape[0]
    starts = (np.cumsum(live) - live).tolist()
    h_prev, z, r, n, gh_n = (acts[name] for name in _GRU_ACTS)
    coef_z = (h_prev - n) * z * (1.0 - z)  # d(gate z pre-activation) / dh
    coef_n = (1.0 - z) * (1.0 - n * n)     # d(candidate pre-activation) / dh
    coef_r = gh_n * r * (1.0 - r)          # d(gate r pre-activation) / d(candidate's)
    DGH = np.empty((len(Xp), 3 * h_size), dtype=Xp.dtype)  # d(h_prev @ U) per token
    da_n = np.empty_like(z)
    dh = dh.copy()
    for t in range(len(live)) if reverse else range(len(live) - 1, -1, -1):
        rows = slice(starts[t], starts[t] + live[t])
        dh_k = dh[: live[t]]
        dgh = DGH[rows]
        np.multiply(dh_k, coef_z[rows], out=dgh[:, :h_size])
        dn = np.multiply(dh_k, coef_n[rows], out=da_n[rows])
        np.multiply(dn, coef_r[rows], out=dgh[:, h_size : 2 * h_size])
        np.multiply(dn, r[rows], out=dgh[:, 2 * h_size :])
        back = dgh @ U.T
        dh_k *= z[rows]
        dh_k += back
    DGX = DGH.copy()  # d(x @ W + bias) per token
    DGX[:, 2 * h_size :] = da_n
    grads_W += Xp.T @ DGX
    grads_U += h_prev.T @ DGH
    grads_b += DGX.sum(axis=0)
    return DGX @ W.T


def _forward_batch(batch: list[np.ndarray], params: ModelParams, backward: bool = False):
    """Per-head logits (one ``(B, classes)`` array per head) plus the cache
    the backward pass reads; the GRU activations are kept only for a
    ``backward`` pass."""
    X, embed_cache = _embed_batch(batch, params)
    arrays = params.arrays
    n_tokens = np.array([len(ids) for ids in batch])
    # Pack: samples in stable longest-first order, tokens time-major.
    firsts = np.cumsum(n_tokens) - n_tokens  # each sample's first row of X
    order = np.argsort(-n_tokens, kind="stable")
    live = (n_tokens[:, None] > np.arange(n_tokens.max())).sum(axis=0)
    steps, ranks = np.nonzero(np.arange(len(batch)) < live[:, None])
    packed = firsts[order[ranks]] + steps  # row of X of each packed token
    Xp = X[packed]
    live = live.tolist()
    hf, acts_f = _gru_scan(Xp, live, arrays["Wf"], arrays["Uf"], arrays["biasf"],
                           reverse=False, keep=backward)
    hb, acts_b = _gru_scan(Xp, live, arrays["Wb"], arrays["Ub"], arrays["biasb"],
                           reverse=True, keep=backward)
    H = np.empty((len(batch), hf.shape[1] + hb.shape[1]), dtype=X.dtype)
    H[order] = np.concatenate([hf, hb], axis=1)
    cache = {"embed": embed_cache, "H": H, "order": order, "live": live, "packed": packed,
             "Xp": Xp, "acts_f": acts_f, "acts_b": acts_b}
    logits = [
        H @ arrays[f"head{i}_W"] + arrays[f"head{i}_b"]
        for i in range(len(params.space.head_sizes))
    ]
    return logits, cache


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def loss_and_grads(
    batch: list[np.ndarray], targets: np.ndarray, params: ModelParams
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Mean over the batch of the summed per-head cross-entropies against
    ``targets`` (one class-id row per sample), analytic gradients for every
    parameter, and the ``(batch, heads)`` argmax classes."""
    logits, cache = _forward_batch(batch, params, backward=True)
    arrays = params.arrays
    B = len(batch)
    grads = {k: np.zeros_like(v) for k, v in arrays.items()}

    loss = 0.0
    H = cache["H"]
    dH = np.zeros_like(H)
    for i, head_logits in enumerate(logits):
        probs = _softmax(head_logits)
        idx = targets[:, i]
        picked = probs[np.arange(B), idx]
        loss += float(-np.log(np.maximum(picked, 1e-12)).sum()) / B
        dlogits = probs.copy()
        dlogits[np.arange(B), idx] -= 1.0
        dlogits /= B
        grads[f"head{i}_W"] += H.T @ dlogits
        grads[f"head{i}_b"] += dlogits.sum(axis=0)
        dH += dlogits @ arrays[f"head{i}_W"].T

    h = arrays["Uf"].shape[0]
    dH = dH[cache["order"]]
    live, Xp = cache["live"], cache["Xp"]
    dXp = _gru_backward(dH[:, :h], cache["acts_f"], live, False, Xp, arrays["Wf"],
                        arrays["Uf"], grads["Wf"], grads["Uf"], grads["biasf"])
    dXp += _gru_backward(dH[:, h:], cache["acts_b"], live, True, Xp, arrays["Wb"],
                         arrays["Ub"], grads["Wb"], grads["Ub"], grads["biasb"])
    dX = np.empty_like(dXp)
    dX[cache["packed"]] = dXp
    _embed_backward(dX, cache["embed"], grads)
    return loss, grads, np.stack([head_logits.argmax(axis=1) for head_logits in logits], axis=1)


def _adam_step(params: ModelParams, grads: dict, lr: float, state: dict) -> None:
    """One Adam update in place; ``state`` holds the step count and moments."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state["t"] += 1
    t = state["t"]
    for key, grad in grads.items():
        m = state["m"][key]
        v = state["v"][key]
        m *= beta1
        m += (1 - beta1) * grad
        v *= beta2
        v += (1 - beta2) * grad * grad
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        params.arrays[key] -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(
            params.arrays[key].dtype
        )


@dataclass
class CurvePoint:
    """One epoch of a fit: ``loss`` is the mean of its minibatch losses and
    ``train_acc`` the fraction of its samples correct on every live head,
    each minibatch scored on its own logits before its Adam update. Both
    are running figures over the epoch, not a pass over the model it ends
    with."""

    epoch: int
    loss: float
    train_acc: float


def train(
    samples: list[LabeledSample],
    config: TrainConfig,
    schema: TargetSchema,
    key_kinds: list[CanonKind] | None = None,
    dictionaries: dict[str, list[list[str]]] | None = None,
) -> tuple[ModelParams, list[CurvePoint]]:
    """Adam-trained model; (seed, data, config) fully determine the result.

    Single-class heads carry zero gradient and act as constant predictors,
    which is the intended degenerate-vocabulary behavior.
    """
    if not samples:
        raise EmptyEvalSet("no training samples")
    params = init_params(config, schema, key_kinds, dictionaries)
    ids, targets, live = encode_samples(samples, params)
    rng = np.random.default_rng(config.seed + 101)
    adam_state = {
        "t": 0,
        "m": {k: np.zeros_like(v) for k, v in params.arrays.items()},
        "v": {k: np.zeros_like(v) for k, v in params.arrays.items()},
    }
    curve: list[CurvePoint] = []
    n = len(ids)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total_loss, hits = 0.0, 0
        starts = range(0, n, config.batch_size)
        for start in starts:
            rows = order[start : start + config.batch_size]
            loss, grads, choices = loss_and_grads([ids[i] for i in rows], targets[rows], params)
            hits += _accuracy_encoded(choices, targets[rows], live[rows])
            _adam_step(params, grads, config.learning_rate, adam_state)
            total_loss += loss
        curve.append(CurvePoint(epoch, total_loss / len(starts), hits / n))
        if not params.finite():
            raise FloatingPointError(f"non-finite parameters after epoch {epoch}")
    return params, curve


_CHUNK = 512  # samples per forward pass when no activations are kept


def _head_choices(
    encoded: list[np.ndarray], params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's argmax class per head and the softmax probability of
    that class, as two ``(samples, heads)`` arrays in input order.

    The argmax is taken on the logits; the chosen class's probability is
    ``1 / sum(exp(logits - max))``. Chunks run in stable order of token
    count, and a row that has ended is not updated, so no row depends on
    the chunk it ran in beyond rounding. No activations are stored."""
    shape = (len(encoded), len(params.space.head_sizes))
    choices = np.zeros(shape, dtype=np.int64)
    chosen = np.zeros(shape, dtype=params.arrays["E"].dtype)
    order = np.argsort([len(ids) for ids in encoded], kind="stable")
    for start in range(0, len(encoded), _CHUNK):
        part = order[start : start + _CHUNK]
        logits, _ = _forward_batch([encoded[i] for i in part], params)
        for head, head_logits in enumerate(logits):
            top = head_logits.max(axis=1, keepdims=True)
            choices[part, head] = head_logits.argmax(axis=1)
            chosen[part, head] = 1.0 / np.exp(head_logits - top).sum(axis=1)
    return choices, chosen


def _accuracy_encoded(choices: np.ndarray, targets: np.ndarray, live: np.ndarray) -> int:
    """How many ``choices`` rows match their ``targets`` row on every head
    that ``live`` (a ``LabelSpace.live_mask``) marks."""
    return int(((choices == targets) | ~live).all(axis=1).sum())


def accuracy(samples: list[LabeledSample], params: ModelParams) -> float:
    """Fraction of samples whose every head (all key components, all
    attribute slots within the cell's width, and the aggregation mode)
    matches the label."""
    if not samples:
        raise EmptyEvalSet("no evaluation samples")
    ids, targets, live = encode_samples(samples, params)
    return _accuracy_encoded(_head_choices(ids, params)[0], targets, live) / len(ids)


@dataclass
class Prediction:
    position: TargetPosition
    confidence: float  # product of the chosen classes' probabilities over live heads
    copy_out_of_range: int = 0
    copy_outside_domain: int = 0


def _encode_cells(
    cells: list[SuperCell], sorted_keys: list[tuple[str, ...]], vocab: SubwordVocab
) -> list[np.ndarray]:
    """Each cell's token ids, equal to ``encode(render_feature(cell), vocab)``
    (``sorted_keys`` holds each cell's ``sorted_keys()``). Each distinct
    text, a key component, an attribute name or a value, is tokenized and
    looked up once, through a table that lives for this call only; tokens
    reach ``vocab`` in the order ``render_feature`` gives them. A cell that
    renders no token raises ValueError, as ``FeatureSentence`` does."""
    ids_of: dict[str, list[int]] = {}
    encoded = []
    for cell, keys in zip(cells, sorted_keys):
        ids: list[int] = []
        for text, _ in feature_texts(cell, keys):
            text_ids = ids_of.get(text)
            if text_ids is None:
                text_ids = ids_of[text] = [vocab.token_id(tok) for tok in tokenize(text)]
            ids += text_ids
        if not ids:
            raise ValueError(f"cell {cell.source_id}:{cell.row_ordinal} renders no token")
        encoded.append(np.array(ids, dtype=np.int64))
    return encoded


def predict_cells(cells: list[SuperCell], params: ModelParams) -> list[Prediction]:
    """Argmax position for each super cell, with COPY markers resolved
    against the cell's canonically ordered keys. A COPY component that is
    out of range, or that resolves outside its slot's closed key domain,
    degrades to NULL and is counted on the prediction; ``apply`` then
    counts the cell's values as skipped. A cell wider than ``max_width``
    gets a position of ``max_width`` attributes.

    Inputs repeat across the cells of a call, so each distinct key tuple is
    sorted once, each distinct text is tokenized once, each distinct
    (head-choice row, width) is decoded and searched for COPY markers once,
    and each distinct (key component, slot) is canonicalized once, through
    tables that live for this call only; the confidences are one product
    over the live-head mask, the masked heads counting as 1. Nothing is kept
    between calls."""
    sorted_of: dict[tuple[str, ...], tuple[str, ...]] = {}
    sorted_keys = []
    for cell in cells:
        keys = sorted_of.get(cell.keys)
        if keys is None:
            keys = sorted_of[cell.keys] = cell.sorted_keys()
        sorted_keys.append(keys)
    choices, chosen = _head_choices(_encode_cells(cells, sorted_keys, params.vocab), params)
    widths = [cell.width for cell in cells]
    live = params.space.live_mask(widths)
    confidences = np.where(live, chosen, chosen.dtype.type(1)).prod(axis=1).tolist()
    closed = params.schema.closed_values()
    decoded: dict[tuple, tuple[TargetPosition, tuple[tuple[int, int], ...]]] = {}
    canonical: dict[tuple[str, int], str] = {}
    out = []
    for keys, row, width, confidence in zip(sorted_keys, choices.tolist(), widths, confidences):
        key = (*row, min(width, params.space.max_width))
        entry = decoded.get(key)
        if entry is None:
            position = params.space.decode(row, width)
            entry = decoded[key] = (position, copy_slots(position))
        position, out_of_range, outside = resolve_position(
            entry[0], keys, params.key_kinds, params.synonyms, closed, canonical, copies=entry[1],
        )
        out.append(Prediction(position, confidence, out_of_range, outside))
    return out


def integrate_predictions(cells: list[SuperCell], params: ModelParams):
    """Assemble predictions for a corpus into a target table of the model's
    schema.

    A mispredicted aggregation mode that conflicts with an existing cell is
    skipped rather than aborting the run (``apply`` counts the values it
    could not write); a handful of wrong cells is the tolerable failure
    mode here."""
    table = TargetTable(params.schema)
    for cell, prediction in zip(cells, predict_cells(cells, params)):
        try:
            table.apply(cell, prediction.position)
        except AggModeConflict:
            pass
    return table


def gradient_check(seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients
    (step 1e-4) on a random tiny model; near-zero pairs fall under an
    absolute 1e-6 tolerance and count as zero error."""
    rng = np.random.default_rng(seed)
    schema = TargetSchema(
        attributes=("k1", "a", "b"),
        key_attributes=("k1",),
        key_domains={"k1": KeyDomain(("x", "y"), False)},
    )
    config = TrainConfig(
        embed_dim=2, hidden=3, bucket_count=23,
        max_copy=2, max_width=2, seed=seed, dtype="float64",
    )
    params = init_params(config, schema)
    for key in params.arrays:
        params.arrays[key] = rng.standard_normal(params.arrays[key].shape) * 0.5

    sentences = []
    words = ["alpha", "beta", "gamma", "delta", "ep"]
    for _ in range(3):
        n = int(rng.integers(2, 6))
        toks = tuple(words[int(rng.integers(len(words)))] for _ in range(n))
        sentences.append(FeatureSentence(toks, ("VAL",) * n))
    batch = [encode(sentence, params.vocab) for sentence in sentences]
    targets = np.array([[int(rng.integers(k)) for k in params.space.head_sizes]
                        for _ in sentences], dtype=np.int64)

    _, grads, _ = loss_and_grads(batch, targets, params)
    max_err = 0.0
    for key, array in params.arrays.items():
        flat = array.reshape(-1)
        grad_flat = grads[key].reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + 1e-4
            loss_plus, _, _ = loss_and_grads(batch, targets, params)
            flat[idx] = original - 1e-4
            loss_minus, _, _ = loss_and_grads(batch, targets, params)
            flat[idx] = original
            numeric = (loss_plus - loss_minus) / 2e-4
            analytic = grad_flat[idx]
            denom = max(abs(numeric), abs(analytic))
            if denom < 1e-6:
                continue
            max_err = max(max_err, abs(numeric - analytic) / denom)
    return max_err
