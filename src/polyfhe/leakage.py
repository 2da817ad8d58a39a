"""Soft-biometric leakage evaluation: Privacy Gain and Suppression Rate.

A deterministic multinomial linear classifier (softmax + full-batch gradient
descent) plays the attacker.  It is trained on different views of the same
labeled dataset -- raw embeddings, polynomially protected templates,
compressed prefixes, and serialized ciphertext dumps -- and the drop in its
attribute accuracy quantifies what each protection layer suppresses:

    privacy gain       PG = (1 - R_p) - (1 - R_o) = R_o - R_p
    suppression rate   SR = (A_o - A_p) / A_o

Ciphertext features deliberately exclude the masking seed: the attacker sees
only the serialized bytes, which is the point of the experiment.  The chance
baseline is max(majority-class share, 1/num_classes), since a lazy majority
vote is the stronger trivial attacker on imbalanced labels.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .backend import HEADER_LEN, EncryptionContext, encrypt, serialize_ciphertext
from .errors import DegenerateLabels, DimensionMismatch, InfeasibleParams, ZeroBaseline
from .pipeline import ATTRIBUTE_CLASSES, compress_prefix, enroll
from .polyprotect import gen_params, protect_plain

VARIANTS = ("none", "polyprotect", "mrl", "mrl+polyprotect", "mrl+fhe", "mrl+polyprotect+fhe")


@dataclass
class LinearClassifier:
    """Multinomial softmax model; deterministic given seed and data order."""

    weights: np.ndarray  # (classes, features)
    bias: np.ndarray
    classes: tuple
    train_meta: dict
    feat_mean: np.ndarray
    feat_scale: np.ndarray


def train_attr_classifier(
    features, labels, epochs: int = 300, lr: float = 0.5, seed: int = 0, weight_decay: float = 0.0
) -> LinearClassifier:
    """Full-batch gradient descent on softmax cross-entropy.

    Features are standardized internally (train statistics travel with the
    model), which keeps one learning rate workable across feature scales from
    unit embeddings to byte histograms.  Optional L2 weight decay lets the
    attacker fall back to the class prior when features carry nothing.
    """
    x = np.asarray(features, dtype=np.float64)
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise DegenerateLabels("training needs at least two distinct classes")
    index = {c: i for i, c in enumerate(classes)}
    y = np.array([index[l] for l in labels])
    n, f = x.shape

    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    xs = (x - mean) / scale

    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.01, (len(classes), f))
    b = np.zeros(len(classes))
    onehot = np.zeros((n, len(classes)))
    onehot[np.arange(n), y] = 1.0
    for _ in range(epochs):
        logits = xs @ w.T + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        w -= lr * (g.T @ xs + weight_decay * w)
        b -= lr * g.sum(axis=0)
    meta = {"epochs": epochs, "learning_rate": lr, "seed": seed, "weight_decay": weight_decay}
    return LinearClassifier(w, b, classes, meta, mean, scale)


def predict(clf: LinearClassifier, features) -> list:
    x = np.asarray(features, dtype=np.float64)
    if x.shape[1] != clf.weights.shape[1]:
        raise DimensionMismatch(f"features have {x.shape[1]} dims, classifier expects {clf.weights.shape[1]}")
    xs = (x - clf.feat_mean) / clf.feat_scale
    idx = np.argmax(xs @ clf.weights.T + clf.bias, axis=1)
    return [clf.classes[i] for i in idx]


def eval_accuracy(clf: LinearClassifier, features, labels) -> float:
    """Fraction of correct predictions."""
    preds = predict(clf, features)
    return float(np.mean([p == t for p, t in zip(preds, labels)]))


def privacy_gain(r_o: float, r_p: float) -> float:
    """(1 - r_p) - (1 - r_o): positive means the protection helped."""
    if not (0.0 <= r_o <= 1.0 and 0.0 <= r_p <= 1.0):
        raise ValueError("recognition performances must be in [0, 1]")
    return (1.0 - r_p) - (1.0 - r_o)


def suppression_rate(a_o: float, a_p: float) -> float:
    """(a_o - a_p) / a_o: relative drop in attribute prediction accuracy."""
    if a_o == 0.0:
        raise ZeroBaseline("suppression rate needs a nonzero baseline accuracy")
    return (a_o - a_p) / a_o


def chance_level(labels) -> float:
    """max(majority-class share, 1/num_classes)."""
    vals, counts = np.unique(np.asarray(labels, dtype=object), return_counts=True)
    return max(float(counts.max()) / len(labels), 1.0 / len(vals))


def ciphertext_features(records, ctx: EncryptionContext, masked: bool = True) -> np.ndarray:
    """Featurize serialized ciphertexts -- without the masking seed.

    Each sample (one SlotVector) becomes one row: a normalized byte histogram
    of its full dump plus a bounded value channel (slot payload bytes
    reinterpreted as floats, NaN/inf squashed, clipped to [-10, 10]).  With
    masking on both channels are keystream noise; masked=False is the control
    arm where the value channel carries the actual slots.
    """
    rows = []
    for ct in records:
        blob = serialize_ciphertext(ct, ctx, mask=masked)
        all_bytes = np.frombuffer(blob, dtype=np.uint8)
        hist = np.bincount(all_bytes, minlength=256).astype(np.float64) / len(all_bytes)
        payload = np.frombuffer(blob[HEADER_LEN:], dtype="<f8")
        values = np.clip(np.nan_to_num(payload, nan=0.0, posinf=10.0, neginf=-10.0), -10.0, 10.0)
        rows.append(np.concatenate([hist, values]))
    return np.stack(rows)


@dataclass
class LeakageReport:
    """Attribute accuracies with and without protection, plus PG and SR.

    PG is taken over the attribute accuracies, so the recognition
    performances r_o and r_p are a_o and a_p.  They stay readable under
    those names because perfbench's leakage check reads them.
    """

    attribute: str
    variant: str
    a_o: float
    a_p: float
    pg: float
    sr: float
    chance: float

    @property
    def r_o(self) -> float:
        return self.a_o

    @property
    def r_p(self) -> float:
        return self.a_p


def _variant_features(variant, dataset, ctx, params, compress_dim) -> np.ndarray:
    """The (samples, features) matrix the attacker sees for one variant."""
    if variant == "none":
        return np.stack([e.values for e in dataset])
    if variant == "polyprotect":
        return np.stack([protect_plain(e.values, params) for e in dataset])
    if variant == "mrl":
        return np.stack([compress_prefix(e, compress_dim) for e in dataset])
    if variant == "mrl+polyprotect":
        return np.stack([protect_plain(compress_prefix(e, compress_dim), params) for e in dataset])
    if variant == "mrl+fhe":
        return ciphertext_features([encrypt(compress_prefix(e, compress_dim), ctx) for e in dataset], ctx)
    if variant == "mrl+polyprotect+fhe":
        return ciphertext_features([enroll(e, params, ctx, compress_dim).template for e in dataset], ctx)
    raise ValueError(f"unknown variant {variant!r}")


def _split(n, seed, test_frac=0.3):
    order = np.random.default_rng(seed).permutation(n)
    n_test = max(1, int(round(test_frac * n)))
    return order[n_test:], order[:n_test]


def run_leakage_suite(
    dataset: list,
    protection_variants=VARIANTS,
    ctx: EncryptionContext = None,
    compress_dim: int = 64,
    m: int = 5,
    overlap: int = 4,
    c_range: int = 50,
    seed: int = 0,
    epochs: int = 300,
    lr: float = 0.5,
    weight_decay: float = 0.3,
) -> list:
    """Train the attacker per (attribute x variant) and report PG/SR.

    The "none" baseline accuracies are always computed (they anchor a_o for
    every row).  Protection uses one shared parameter set -- the attacker of
    the full-disclosure model knows the parameters, so leakage is measured on
    the transform itself rather than on parameter diversity.
    """
    if ctx is None:
        ctx = EncryptionContext(max(128, compress_dim), 16, key_id=f"leakage-{seed}", nonce_seed=seed)
    params = gen_params(m, overlap, c_range, seed=[seed, 7919])
    train_idx, test_idx = _split(len(dataset), seed)
    all_labels = {attr: [e.attributes[attr] for e in dataset] for attr in ATTRIBUTE_CLASSES}

    feats = {"none": _variant_features("none", dataset, ctx, params, compress_dim)}
    for variant in protection_variants:
        if variant not in feats:
            feats[variant] = _variant_features(variant, dataset, ctx, params, compress_dim)

    def cell_accuracy(variant, attr):
        labels = all_labels[attr]
        x = feats[variant]
        clf = train_attr_classifier(x[train_idx], [labels[i] for i in train_idx], epochs, lr, seed, weight_decay)
        return eval_accuracy(clf, x[test_idx], [labels[i] for i in test_idx])

    cells = [("none", attr) for attr in ATTRIBUTE_CLASSES]
    cells += [(v, attr) for v in protection_variants if v != "none" for attr in ATTRIBUTE_CLASSES]
    accs = {cell: cell_accuracy(*cell) for cell in cells}

    reports = []
    for variant in protection_variants:
        for attr in ATTRIBUTE_CLASSES:
            test_labels = [all_labels[attr][i] for i in test_idx]
            a_o = accs[("none", attr)]
            a_p = accs[(variant, attr)]
            reports.append(
                LeakageReport(
                    attribute=attr,
                    variant=variant,
                    a_o=a_o,
                    a_p=a_p,
                    pg=privacy_gain(a_o, a_p),
                    sr=suppression_rate(a_o, a_p),
                    chance=chance_level(test_labels),
                )
            )
    return reports


def ablation_sweep(
    param: str,
    values,
    dataset: list,
    base_m: int = 5,
    base_overlap: int = 2,
    base_c_range: int = 50,
    seed: int = 0,
    epochs: int = 300,
    lr: float = 0.5,
    weight_decay: float = 0.3,
) -> list:
    """Leakage accuracy per attribute while sweeping one transform parameter.

    Rows are dicts {param, value, attribute, accuracy} -- or {param, value,
    error} when a value makes the parameters infeasible.
    """
    if param not in ("overlap", "m", "c_range"):
        raise ValueError("param must be one of overlap, m, c_range")
    train_idx, test_idx = _split(len(dataset), seed)
    rows = []
    for value in values:
        m, overlap, c_range = base_m, base_overlap, base_c_range
        if param == "m":
            m = value
            overlap = min(base_overlap, m - 1)
        elif param == "overlap":
            overlap = value
        else:
            c_range = value
        try:
            params = gen_params(m, overlap, c_range, seed=[seed, 7919])
        except (InfeasibleParams, ValueError) as exc:
            rows.append({"param": param, "value": value, "error": type(exc).__name__})
            continue
        feats = np.stack([protect_plain(e.values, params) for e in dataset])
        for attr in ATTRIBUTE_CLASSES:
            labels = [e.attributes[attr] for e in dataset]
            clf = train_attr_classifier(feats[train_idx], [labels[i] for i in train_idx], epochs, lr, seed, weight_decay)
            acc = eval_accuracy(clf, feats[test_idx], [labels[i] for i in test_idx])
            rows.append({"param": param, "value": value, "attribute": attr, "accuracy": acc})
    return rows


def write_leakage_csv(reports, path):
    """attribute,variant,a_o,a_p,pg_x100,sr,chance -- table-style layout."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["attribute", "variant", "a_o", "a_p", "pg_x100", "sr", "chance"])
        for r in reports:
            w.writerow(
                [r.attribute, r.variant, f"{r.a_o:.4f}", f"{r.a_p:.4f}", f"{r.pg * 100:.2f}", f"{r.sr:.4f}", f"{r.chance:.4f}"]
            )


def write_ablation_csv(rows, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["param", "value", "attribute", "accuracy", "error"])
        for r in rows:
            w.writerow([r["param"], r["value"], r.get("attribute", ""),
                        f"{r['accuracy']:.4f}" if "accuracy" in r else "", r.get("error", "")])
