"""Synthetic input generators matching Table II's record statistics.

The paper's corpora (16-64 MB documents, html files, vector sets) are
not distributed; these generators produce inputs with the same
*record-level statistics* — mean/stddev of record sizes, match/link
densities, input:output record-count ratios — which are the quantities
that drive every contention effect the evaluation measures.  All
generators are seeded and deterministic.

Paper-scale problem sizes are scaled down ~64-256x by default (the
simulator trades wall-clock speed for mechanism fidelity); the
pytest-benchmark suite (``benchmarks/conftest.py``) can raise them via
the ``REPRO_SCALE`` environment variable.  ``python -m bench`` does not
read it: its workloads fix their own sizes.

Each random draw is one cheap call on the seed's ``Generator`` stream
that draws what the equivalent ``rng.choice`` call would (see
``_letters`` and ``text_lines``), without ``choice``'s per-call argument
checks.  Every reported figure is computed on these inputs, so a faster
generator must not change a byte: ``tests/workloads/test_datagen.py``
pins them and compares them with the ``choice`` loops.
"""

from __future__ import annotations

import string
from bisect import bisect_right

import numpy as np

#: Vocabulary letters for generated words.
_LETTERS = np.frombuffer(string.ascii_lowercase.encode(), dtype=np.uint8)


def _letters(rng: np.random.Generator, n: int) -> bytes:
    """``n`` random lowercase letters: the draw of
    ``rng.choice(_LETTERS, size=n)`` without its argument checks."""
    return _LETTERS[rng.integers(0, len(_LETTERS), size=n)].tobytes()


def _zipf_vocabulary(rng: np.random.Generator, size: int = 4096,
                     mean_len: float = 5.46, std_len: float = 2.53) -> list[bytes]:
    """A vocabulary with Word-Count's word-length statistics
    (Table II: intermediate key 5.46 / 2.53)."""
    words = []
    seen = set()
    while len(words) < size:
        ln = int(min(max(rng.normal(mean_len, std_len), 2), 16))
        w = _letters(rng, ln)
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _zipf_weights(n: int, s: float = 1.05) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    w = ranks ** (-s)
    return w / w.sum()


def text_lines(
    total_bytes: int,
    *,
    seed: int = 0,
    target_line_len: float = 32.44,
    vocabulary_size: int = 4096,
    zipf_s: float = 1.05,
) -> list[bytes]:
    """Word-Count-style document lines.

    Lines average ``target_line_len`` bytes (Table II input key
    32.44 / 2.59) and consist of Zipf-distributed words, giving the
    many-occurrences-per-distinct-word profile behind WC's 68:1
    Reduce ratio.

    Each word is ``bisect_right(cdf, rng.random())``, which is how
    ``rng.choice(len(vocab), p=weights)`` draws: it builds the same
    ``cumsum`` CDF normalised by its last entry, takes one ``random()``
    double and searches the CDF with ``side="right"``.  So the pick is
    that call's, byte for byte, with the CDF built once rather than per
    word; ``tests/workloads/test_datagen.py`` pins the output and
    compares it with the per-word ``choice`` loop.
    """
    rng = np.random.default_rng(seed)
    vocab = _zipf_vocabulary(rng, vocabulary_size)
    cdf = _zipf_weights(len(vocab), zipf_s).cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    lines: list[bytes] = []
    produced = 0
    while produced < total_bytes:
        words = []
        ln = 0
        target = max(8, int(rng.normal(target_line_len, 2.59)))
        while ln < target:
            w = vocab[bisect_right(cdf, rng.random())]
            words.append(w)
            ln += len(w) + 1
        line = b" ".join(words)
        lines.append(line)
        produced += len(line)
    return lines


def match_lines(
    total_bytes: int,
    keyword: bytes,
    *,
    seed: int = 0,
    target_line_len: float = 44.52,
    match_ratio: float = 1 / 3.83,
) -> list[bytes]:
    """String-Match lines: ``match_ratio`` of them contain ``keyword``
    (Table II: SM Map ratio 3.83:1; input key 44.52 / 2.68)."""
    rng = np.random.default_rng(seed)
    lines: list[bytes] = []
    produced = 0
    while produced < total_bytes:
        target = max(len(keyword) + 4, int(rng.normal(target_line_len, 2.68)))
        body = _letters(rng, target)
        if rng.random() < match_ratio:
            pos = int(rng.integers(0, max(1, target - len(keyword))))
            body = body[:pos] + keyword + body[pos + len(keyword):]
        lines.append(body)
        produced += len(body)
    return lines


def html_chunks(
    total_bytes: int,
    *,
    seed: int = 0,
    mean_len: float = 63.9,
    link_ratio: float = 1 / 7.94,
    link_mean: float = 31.67,
    link_std: float = 17.34,
) -> list[bytes]:
    """Inverted-Index html fragments.

    Chunk sizes are heavy-tailed (Table II: value 63.9 / 123.2 — a
    lognormal reproduces that variance blow-up), and ``link_ratio`` of
    chunks embed an ``<a href="...">`` anchor whose URL length follows
    the paper's 31.67 / 17.34 output-key statistics.
    """
    rng = np.random.default_rng(seed)
    # lognormal with mean 63.9 and large sigma for the 123.2 stddev.
    sigma = 1.1
    mu = np.log(mean_len) - sigma**2 / 2
    chunks: list[bytes] = []
    produced = 0
    while produced < total_bytes:
        size = int(min(max(rng.lognormal(mu, sigma), 8), 2048))
        body = bytearray(_letters(rng, size))
        if rng.random() < link_ratio:
            url_len = int(min(max(rng.normal(link_mean, link_std), 8), 120))
            url = b"http://" + _letters(rng, max(1, url_len - 7))
            anchor = b'<a href="' + url + b'">'
            if len(body) < len(anchor) + 1:
                body.extend(_letters(rng, len(anchor)))
            pos = int(rng.integers(0, max(1, len(body) - len(anchor))))
            body[pos : pos + len(anchor)] = anchor
        chunks.append(bytes(body))
        produced += len(chunks[-1])
    return chunks


def clustered_vectors(
    n: int,
    *,
    dim: int = 8,
    k: int = 16,
    seed: int = 0,
    spread: float = 0.15,
) -> tuple[np.ndarray, np.ndarray]:
    """KMeans input: ``n`` float32 vectors around ``k`` true centres.

    Table II: KM input value 32 B (dim 8 x f32), key empty.  Returns
    ``(vectors[n, dim], initial_centroids[k, dim])``.
    """
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-1.0, 1.0, size=(k, dim)).astype(np.float32)
    assign = rng.integers(0, k, size=n)
    vecs = centres[assign] + rng.normal(0, spread, size=(n, dim)).astype(np.float32)
    # Initial centroids: perturbed true centres (deterministic).
    init = centres + rng.normal(0, spread / 2, size=(k, dim)).astype(np.float32)
    return vecs.astype(np.float32), init.astype(np.float32)


def random_matrices(n: int, *, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-Multiplication input: two dense ``n x n`` float32 matrices."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(n, n)).astype(np.float32)
    b = rng.uniform(-1, 1, size=(n, n)).astype(np.float32)
    return a, b
