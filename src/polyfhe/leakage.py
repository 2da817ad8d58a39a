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

The attacker steps its (classes, samples) logits, L <- d L - lr G X X^T, and
forms its weights once at the end (train_attr_classifier).  X X^T is formed
once when 2f > n for n samples of f features, and an epoch costs one
rows x n x n product; otherwise two rows x n x f products, (G X) X^T.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .backend import HEADER_LEN, EncryptionContext, encrypt, serialize_ciphertext
from .errors import DegenerateLabels, DimensionMismatch, InfeasibleParams, ZeroBaseline
from .pipeline import ATTRIBUTE_CLASSES, _protect, compress_prefix
from .polyprotect import gen_params, protect_plain

VARIANTS = ("none", "polyprotect", "mrl", "mrl+polyprotect", "mrl+fhe", "mrl+polyprotect+fhe")

# The attacker's learning rate and L2 weight decay, and the held-out share.
_LR = 0.5
_WEIGHT_DECAY = 0.3
_TEST_FRAC = 0.3


@dataclass
class LinearClassifier:
    """Multinomial softmax model; deterministic given seed and data order."""

    weights: np.ndarray  # (classes, features)
    bias: np.ndarray
    classes: tuple
    feat_mean: np.ndarray
    feat_scale: np.ndarray


def train_attr_classifier(
    features, label_sets, epochs: int = 300, lr: float = 0.5, seed: int = 0, weight_decay: float = 0.0
) -> list:
    """Full-batch gradient descent on softmax cross-entropy, one head per label list.

    Every head sees the same features, so they train together: the features
    are standardized once (train statistics travel with each head) and the
    heads' weights are stacked into one (total classes, features) matrix W.
    The softmax runs per head on its own rows.  Each head starts from its own
    default_rng(seed) draw and nothing couples the heads' gradients, so a head
    trains as it would alone, up to rounding.  Standardizing keeps one
    learning rate workable across feature scales from unit embeddings to byte
    histograms; optional L2 weight decay lets the attacker fall back to the
    class prior when features carry nothing.  Returns one LinearClassifier per
    label list, in order.

    The descent runs on the logits, not the weights.  With X the standardized
    (n, f) training matrix, G = (P - Y) / n the logit gradient and
    d = 1 - lr * weight_decay, the weights stay W0 plus a combination of X's
    rows (the representer theorem): W_t = d^t W0 + Z_t X with
    Z <- d Z - lr G, so the logits follow L <- d L - lr G X X^T from
    L0 = W0 X^T, and W is formed once, after the last epoch.  When 2f > n,
    X X^T is formed once and an epoch costs one rows x n x n product;
    otherwise it costs two rows x n x f products, (G X) X^T.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"features must be a (samples, features) matrix, got shape {x.shape}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    n, f = x.shape
    heads = []  # (classes, the head's rows of the stack, label indices)
    rows = 0
    for labels in label_sets:
        if len(labels) != n:
            raise DimensionMismatch(f"a label list has {len(labels)} labels for {n} feature rows")
        classes = tuple(sorted(set(labels)))
        if len(classes) < 2:
            raise DegenerateLabels("training needs at least two distinct classes")
        index = {c: i for i, c in enumerate(classes)}
        heads.append((classes, slice(rows, rows + len(classes)), np.array([index[l] for l in labels])))
        rows += len(classes)

    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    xs = (x - mean) / scale
    gram = xs @ xs.T if 2 * f > n else None

    w0 = np.vstack([np.random.default_rng(seed).normal(0.0, 0.01, (len(c), f)) for c, _, _ in heads])
    logits = w0 @ xs.T  # (rows, n), without the bias
    z = np.zeros((rows, n))
    b = np.zeros(rows)
    onehot = np.zeros((rows, n))  # transposed, like the logits
    for _, block, y in heads:
        onehot[block][y, np.arange(n)] = 1.0
    d = 1.0 - lr * weight_decay
    for _ in range(epochs):
        p = logits + b[:, None]
        for _, block, _ in heads:
            p[block] -= p[block].max(axis=0)
            np.exp(p[block], out=p[block])
            p[block] /= p[block].sum(axis=0)
        g = (p - onehot) / n
        logits *= d
        logits -= lr * (g @ gram if gram is not None else (g @ xs) @ xs.T)
        z *= d
        z -= lr * g
        b -= lr * g.sum(axis=1)
    w = d**epochs * w0 + z @ xs
    return [LinearClassifier(w[block].copy(), b[block].copy(), c, mean, scale) for c, block, _ in heads]


def predict(clf: LinearClassifier, features) -> list:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"features must be a (samples, features) matrix, got shape {x.shape}")
    if x.shape[1] != clf.weights.shape[1]:
        raise DimensionMismatch(f"features have {x.shape[1]} dims, classifier expects {clf.weights.shape[1]}")
    xs = (x - clf.feat_mean) / clf.feat_scale
    idx = np.argmax(xs @ clf.weights.T + clf.bias, axis=1)
    return [clf.classes[i] for i in idx]


def eval_accuracy(clf: LinearClassifier, features, labels) -> float:
    """Fraction of correct predictions."""
    preds = predict(clf, features)
    if len(labels) != len(preds):
        raise DimensionMismatch(f"{len(labels)} labels for {len(preds)} feature rows")
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


def ciphertext_features(records, ctx: EncryptionContext) -> np.ndarray:
    """Featurize serialized ciphertexts -- without the masking seed.

    Each sample (one SlotVector) becomes one row: a normalized byte histogram
    of its full dump plus a bounded value channel (slot payload bytes
    reinterpreted as floats, NaN/inf squashed, clipped to [-10, 10]).  The
    payload is masked, so both channels are keystream noise.
    """
    if not records:
        raise ValueError("ciphertext_features needs at least one record")
    out = np.empty((len(records), 256 + records[0].slots.shape[0]))
    for row, ct in zip(out, records):  # one at a time, in order: each blob draws the next nonce
        blob = serialize_ciphertext(ct, ctx)
        row[:256] = np.bincount(np.frombuffer(blob, dtype=np.uint8), minlength=256) / len(blob)
        row[256:] = np.frombuffer(blob[HEADER_LEN:], dtype="<f8")
    values = out[:, 256:]
    np.nan_to_num(values, copy=False, nan=0.0, posinf=10.0, neginf=-10.0)
    np.clip(values, -10.0, 10.0, out=values)
    return out


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
        return ciphertext_features([_protect(e, params, ctx, compress_dim) for e in dataset], ctx)
    raise ValueError(f"unknown variant {variant!r}")


def _split(n, seed):
    order = np.random.default_rng(seed).permutation(n)
    n_test = max(1, int(round(_TEST_FRAC * n)))
    return order[n_test:], order[:n_test]


def _attack(x, dataset, seed, epochs) -> dict:
    """{attribute: test accuracy} of the attacker trained on the rows of x."""
    train_idx, test_idx = _split(len(dataset), seed)
    labels = {attr: [e.attributes[attr] for e in dataset] for attr in ATTRIBUTE_CLASSES}
    train = {attr: [ys[i] for i in train_idx] for attr, ys in labels.items()}
    try:
        heads = train_attr_classifier(x[train_idx], list(train.values()), epochs, _LR, seed, _WEIGHT_DECAY)
    except DegenerateLabels as exc:
        attr, classes = next((attr, sorted(set(ys))) for attr, ys in train.items() if len(set(ys)) < 2)
        raise DegenerateLabels(
            f"attribute {attr!r} has classes {classes} in its {len(train_idx)}-sample training split: {exc}"
        ) from None
    return {
        attr: eval_accuracy(clf, x[test_idx], [ys[i] for i in test_idx])
        for (attr, ys), clf in zip(labels.items(), heads)
    }


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
) -> list:
    """Train the attacker per (attribute x variant) and report PG/SR.

    The "none" baseline accuracies are always computed (they anchor a_o for
    every row).  Protection uses one shared parameter set -- the attacker of
    the full-disclosure model knows the parameters, so leakage is measured on
    the transform itself rather than on parameter diversity.  Variants are
    featurized in order, "none" first and each distinct variant once, since
    the ciphertext variants draw from the context's nonce stream; each
    distinct variant is reported once, in first-seen order.
    """
    if ctx is None:
        slots = 1 << (max(128, compress_dim) - 1).bit_length()  # the next power of two
        ctx = EncryptionContext(slots, 16, key_id=f"leakage-{seed}", nonce_seed=seed)
    params = gen_params(m, overlap, c_range, seed=[seed, 7919])
    accs = {}
    for variant in ("none", *protection_variants):
        if variant not in accs:
            accs[variant] = _attack(
                _variant_features(variant, dataset, ctx, params, compress_dim), dataset, seed, epochs
            )

    _, test_idx = _split(len(dataset), seed)
    reports = []
    for variant in dict.fromkeys(protection_variants):
        for attr in ATTRIBUTE_CLASSES:
            a_o = accs["none"][attr]
            a_p = accs[variant][attr]
            reports.append(
                LeakageReport(
                    attribute=attr,
                    variant=variant,
                    a_o=a_o,
                    a_p=a_p,
                    pg=privacy_gain(a_o, a_p),
                    sr=suppression_rate(a_o, a_p),
                    chance=chance_level([dataset[i].attributes[attr] for i in test_idx]),
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
) -> list:
    """Leakage accuracy per attribute while sweeping one transform parameter.

    Rows are dicts {param, value, attribute, accuracy} -- or {param, value,
    error} when a value makes the parameters infeasible.  Each distinct value
    is swept once, in first-seen order.
    """
    if param not in ("overlap", "m", "c_range"):
        raise ValueError("param must be one of overlap, m, c_range")
    rows = []
    for value in dict.fromkeys(values):
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
        accs = _attack(np.stack([protect_plain(e.values, params) for e in dataset]), dataset, seed, epochs)
        rows += [{"param": param, "value": value, "attribute": attr, "accuracy": acc} for attr, acc in accs.items()]
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
