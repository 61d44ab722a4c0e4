"""Independent reference implementations used to check the library.

Everything here is written as literal per-element loops over the defining
formulas, deliberately sharing no code with the package. Slow and clear.
The one exception is the dense FCM steps, ``reference_fcm_centers`` and
``reference_fcm_memberships``: numpy expressions of the point-major
loop, fast enough to follow a whole run iteration by iteration.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from pathlib import Path

import numpy as np


def random_count_matrix(
    rng: np.random.Generator, max_terms: int = 8, max_docs: int = 6
) -> np.ndarray:
    """Small random count matrix with no all-zero term row."""
    m = int(rng.integers(2, max_terms + 1))
    n = int(rng.integers(2, max_docs + 1))
    while True:
        f = rng.integers(0, 5, size=(m, n)).astype(float)
        if (f.sum(axis=1) > 0).all():
            return f


def entropy_weights(f: np.ndarray) -> list[float]:
    m, n = f.shape
    out = []
    for i in range(m):
        total = sum(f[i, j] for j in range(n))
        acc = 0.0
        for j in range(n):
            p = f[i, j] / total
            if p > 0:
                acc += p * math.log2(p)
        out.append(1.0 + acc / math.log2(n))
    return out


def idf_weights_total(f: np.ndarray) -> list[float]:
    m, n = f.shape
    return [math.log2(n / sum(f[i, j] for j in range(n))) for i in range(m)]


def idf_weights_df(f: np.ndarray) -> list[float]:
    m, n = f.shape
    out = []
    for i in range(m):
        df = sum(1 for j in range(n) if f[i, j] > 0)
        out.append(math.log2(n / df))
    return out


def probidf_weights(f: np.ndarray) -> list[float]:
    m, n = f.shape
    out = []
    for i in range(m):
        df = sum(1 for j in range(n) if f[i, j] > 0)
        if df == n:
            out.append(-math.inf)
        else:
            out.append(math.log2((n - df) / df))
    return out


def normal_weights(f: np.ndarray) -> list[float]:
    m, n = f.shape
    return [
        1.0 / math.sqrt(sum(f[i, j] ** 2 for j in range(n))) for i in range(m)
    ]


def gfidf_weights(f: np.ndarray) -> list[float]:
    m, n = f.shape
    out = []
    for i in range(m):
        gf = sum(f[i, j] for j in range(n))
        df = sum(1 for j in range(n) if f[i, j] > 0)
        out.append(gf / df)
    return out


def fuzzy_memberships(
    x: np.ndarray, centers: np.ndarray, fuzzifier: float
) -> np.ndarray:
    """Textbook reciprocal ratio-sum membership update on distances."""
    n, c = x.shape[0], centers.shape[0]
    u = np.zeros((n, c))
    for j in range(n):
        dist = [math.dist(x[j], centers[k]) for k in range(c)]
        zero = [k for k in range(c) if dist[k] == 0.0]
        if zero:
            for k in zero:
                u[j, k] = 1.0 / len(zero)
            continue
        for k in range(c):
            acc = 0.0
            for l in range(c):
                acc += (dist[k] / dist[l]) ** (2.0 / (fuzzifier - 1.0))
            u[j, k] = 1.0 / acc
    return u


def fuzzy_centers(x: np.ndarray, u: np.ndarray, fuzzifier: float) -> np.ndarray:
    n, d = x.shape
    c = u.shape[1]
    centers = np.zeros((c, d))
    for k in range(c):
        num = np.zeros(d)
        den = 0.0
        for j in range(n):
            w = u[j, k] ** fuzzifier
            num += w * x[j]
            den += w
        centers[k] = num / den
    return centers


def fuzzy_objective(
    x: np.ndarray, u: np.ndarray, centers: np.ndarray, fuzzifier: float
) -> float:
    total = 0.0
    for j in range(x.shape[0]):
        for k in range(centers.shape[0]):
            total += (u[j, k] ** fuzzifier) * math.dist(x[j], centers[k]) ** 2
    return total


def reference_fcm_centers(x: np.ndarray, u: np.ndarray, fuzzifier: float,
                          rng: np.random.Generator) -> np.ndarray:
    """The center update of the dense FCM loop written point-major, from
    (n, c) memberships: ``einsum("nc,nd->cd")`` over u^q divided by
    ``um.sum(axis=0)``; a cluster without mass restarts at the data point
    ``rng`` draws.
    """
    um = u**fuzzifier
    wsum = um.sum(axis=0)
    centers = np.einsum("nc,nd->cd", um, x)
    centers /= np.where(wsum > 0.0, wsum, 1.0)[:, None]
    for k in np.flatnonzero(wsum == 0.0):
        centers[k] = x[int(rng.integers(x.shape[0]))]
    return centers


def reference_fcm_memberships(x: np.ndarray, centers: np.ndarray,
                              fuzzifier: float) -> tuple[np.ndarray, np.ndarray]:
    """The membership update of the dense FCM loop written point-major:
    a per-cluster einsum into an (n, c) distance array,
    ``d2.min(axis=1)``, ``(dmin / d2) ** expo`` and ``w.sum(axis=1)``.
    Returns the (n, c) memberships and distances.
    """
    d2 = np.empty((x.shape[0], centers.shape[0]))
    for k in range(centers.shape[0]):
        diff = x - centers[k]
        d2[:, k] = np.einsum("nd,nd->n", diff, diff)
    expo = 1.0 / (fuzzifier - 1.0)
    dmin = d2.min(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (dmin / d2) ** expo
        u = w / w.sum(axis=1, keepdims=True)
    singular = np.flatnonzero(dmin.ravel() <= 0.0)
    if singular.size:
        hits = d2[singular] == 0.0
        u[singular] = hits / hits.sum(axis=1, keepdims=True)
    return u, d2


def mixed_topic_given_doc(ptw: np.ndarray, pwd: np.ndarray) -> np.ndarray:
    """Triple-loop mixture of P(T|W) over each document's word distribution."""
    m, k_topics = ptw.shape
    n = pwd.shape[1]
    out = np.zeros((k_topics, n))
    for k in range(k_topics):
        for j in range(n):
            acc = 0.0
            for i in range(m):
                acc += ptw[i, k] * pwd[i, j]
            out[k, j] = acc
    return out


def reference_tokens(text: str, config) -> list[str]:
    """The tokenizer one occurrence at a time: split, then filter each token."""
    if config.lowercase:
        text = text.lower()
    out = []
    for token in re.findall(r"[^\W_]+", text):
        if len(token) < config.min_token_length:
            continue
        if config.drop_numeric and token.isdigit():
            continue
        if token in config.stopwords:
            continue
        out.append(token)
    return out


def reference_count_matrix(texts, config, min_df=1, terms=None):
    """Per-token counting: ``Counter`` of each text's tokens, mapped to ids.

    Without ``terms``, the vocabulary is every token in at least ``min_df``
    texts, sorted. Returns the terms and the CSR arrays ``data``,
    ``indices`` and ``indptr`` of the (terms, texts) count matrix, with
    the dtypes scipy gives a small matrix (float64, int32, int32), and
    each text's token total (int64).
    """
    counts = [Counter(reference_tokens(text, config)) for text in texts]
    if terms is None:
        df = Counter(term for c in counts for term in c)
        terms = tuple(sorted(t for t, n in df.items() if n >= min_df))
    data, indices, indptr = [], [], [0]
    for term in terms:
        for j, c in enumerate(counts):
            if c[term] > 0:
                data.append(float(c[term]))
                indices.append(j)
        indptr.append(len(data))
    return (
        tuple(terms),
        np.array(data, dtype=np.float64),
        np.array(indices, dtype=np.int32),
        np.array(indptr, dtype=np.int32),
        np.array([c.total() for c in counts], dtype=np.int64),
    )


def reference_lines(path) -> list[str]:
    """The documents of a ``lines`` or ``labeled-tsv`` file, read whole.

    Universal newlines turn \\r\\n and \\r into \\n, a leading byte-order
    mark is skipped, only \\n separates documents, and the empty piece
    after a final newline is not a document.
    """
    lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines
