"""Tests for the synthetic data generators (Table II statistics)."""

import hashlib
import struct

import numpy as np
import pytest

from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS
from repro.workloads.datagen import (
    _LETTERS,
    clustered_vectors,
    html_chunks,
    match_lines,
    random_matrices,
    text_lines,
)


class TestTextLines:
    def test_volume(self):
        lines = text_lines(10_000, seed=1)
        assert sum(map(len, lines)) >= 10_000

    def test_line_length_statistics(self):
        """Table II: WC input key 32.44 / 2.59."""
        lines = text_lines(100_000, seed=2)
        lens = np.array([len(l) for l in lines], dtype=float)
        assert abs(lens.mean() - 32.44) < 4.0

    def test_word_length_statistics(self):
        """Table II: intermediate key 5.46 / 2.53."""
        lines = text_lines(100_000, seed=3)
        words = [w for l in lines for w in l.split(b" ") if w]
        lens = np.array([len(w) for w in words], dtype=float)
        assert abs(lens.mean() - 5.46) < 1.5

    def test_zipf_skew(self):
        """Most frequent word much more common than the median."""
        lines = text_lines(50_000, seed=4)
        from collections import Counter

        counts = Counter(w for l in lines for w in l.split(b" ") if w)
        freqs = sorted(counts.values(), reverse=True)
        assert freqs[0] > 10 * freqs[len(freqs) // 2]

    def test_deterministic(self):
        assert text_lines(5000, seed=7) == text_lines(5000, seed=7)
        assert text_lines(5000, seed=7) != text_lines(5000, seed=8)


class TestMatchLines:
    def test_match_ratio(self):
        """Table II: SM Map ratio 3.83:1."""
        lines = match_lines(200_000, b"needle", seed=1)
        hits = sum(1 for l in lines if b"needle" in l)
        ratio = len(lines) / hits
        assert 3.0 < ratio < 4.8

    def test_line_lengths(self):
        lines = match_lines(100_000, b"kw", seed=2)
        lens = np.array([len(l) for l in lines], dtype=float)
        assert abs(lens.mean() - 44.52) < 4.0

    def test_keyword_intact(self):
        lines = match_lines(20_000, b"xyzzy", seed=3)
        assert any(l.count(b"xyzzy") >= 1 for l in lines)


class TestHtmlChunks:
    def test_link_ratio(self):
        """Table II: II Map ratio 7.94:1."""
        chunks = html_chunks(300_000, seed=1)
        hits = sum(1 for c in chunks if b'<a href="' in c)
        ratio = len(chunks) / hits
        assert 5.5 < ratio < 11.0

    def test_heavy_tail(self):
        """Table II: value 63.9 / 123.2 — stddev far above the mean."""
        chunks = html_chunks(300_000, seed=2)
        lens = np.array([len(c) for c in chunks], dtype=float)
        assert lens.std() > lens.mean()

    def test_urls_parseable(self):
        chunks = html_chunks(100_000, seed=3)
        for c in chunks:
            pos = c.find(b'<a href="')
            if pos >= 0:
                end = c.find(b'"', pos + 9)
                assert end > pos + 9  # a closing quote exists
                assert c[pos + 9:end].startswith(b"http://")


class TestVectors:
    def test_shapes_and_dtype(self):
        vecs, init = clustered_vectors(100, dim=8, k=4, seed=1)
        assert vecs.shape == (100, 8)
        assert init.shape == (4, 8)
        assert vecs.dtype == np.float32

    def test_vectors_cluster_around_centres(self):
        vecs, init = clustered_vectors(2000, dim=8, k=4, seed=2, spread=0.05)
        # Each vector is close to SOME initial centroid.
        d = np.linalg.norm(vecs[:, None, :] - init[None, :, :], axis=2)
        assert np.median(d.min(axis=1)) < 0.5

    def test_deterministic(self):
        a, _ = clustered_vectors(50, seed=9)
        b, _ = clustered_vectors(50, seed=9)
        assert np.array_equal(a, b)


class TestMatrices:
    def test_shapes(self):
        a, b = random_matrices(12, seed=1)
        assert a.shape == b.shape == (12, 12)
        assert a.dtype == np.float32

    def test_range(self):
        a, b = random_matrices(16, seed=2)
        assert np.abs(a).max() <= 1.0


# ----------------------------------------------------------------------
# Byte pins.  Every figure the evaluation reports is computed on these
# generated inputs, so a generator may get faster but must not change a
# byte.  The digests were taken from the per-draw generators (the
# reference code below); a mismatch means the inputs moved.


def _digest(*parts) -> str:
    """BLAKE2b over byte sequences (length-prefixed) and arrays (dtype,
    shape and buffer)."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(part.tobytes())
        else:
            for item in part:
                h.update(struct.pack("<I", len(item)))
                h.update(item)
    return h.hexdigest()


_GENERATOR_PINS = {
    0: {
        "text_lines": "0f47974824f267e78e91c68a5fc61cc8",
        "text_lines_v512": "58f3cdabbe89e00cff092ce5bcc4542f",
        "match_lines": "15ad2f502f563ea26d8e36bd8fb985d4",
        "html_chunks": "a3077b93a9aea7cd257ada9ac626ed60",
        "clustered_vectors": "f331fa2a224c2be2d795a94a29965604",
        "random_matrices": "407c05fdff3d5e8ec1b5a5b41026ffad",
    },
    5: {
        "text_lines": "37334a94899c20efa05e162357eccc17",
        "text_lines_v512": "0394edc0d1ade6b8def5dd0c8d23036f",
        "match_lines": "e85299b616f6bac71142e73595bb93b9",
        "html_chunks": "d68679ce0fc219142de4d8d95923708a",
        "clustered_vectors": "0ad8dcfcd1354eaf1ef4b6c8575a2440",
        "random_matrices": "6220526ee42709c7557fb5c884b26045",
    },
}

_WORKLOAD_PINS = {
    "WordCount": "7bbd74e110381c9980b26054c2a74515",
    "MatrixMultiplication": "ffad9f8ddd2b59ec7155c24c9fcc4779",
    "StringMatch": "dd13632e71493411adf329cb212943e1",
    "InvertedIndex": "01ca72ab59e168f2e3c87c39599d8435",
    "KMeans": "0023cafe0bb2da94b8db52f3e600b833",
    "SimilarityScore": "e8a6af30c350f6eee67e6bc5139d9f3f",
    "Histogram": "99f4f16bc835b2fef772d6866501ee91",
    "LinearRegression": "7c92bea1f2c440a60ad480a361de638a",
}


@pytest.mark.parametrize("seed", sorted(_GENERATOR_PINS))
def test_generator_bytes_are_pinned(seed):
    got = {
        "text_lines": _digest(text_lines(20_000, seed=seed)),
        "text_lines_v512": _digest(
            text_lines(20_000, seed=seed, vocabulary_size=512)),
        "match_lines": _digest(match_lines(20_000, b"needle", seed=seed)),
        "html_chunks": _digest(html_chunks(40_000, seed=seed)),
        "clustered_vectors": _digest(*clustered_vectors(300, seed=seed)),
        "random_matrices": _digest(*random_matrices(16, seed=seed)),
    }
    assert got == _GENERATOR_PINS[seed]


@pytest.mark.parametrize(
    "cls", [*ALL_WORKLOADS, *EXTRA_WORKLOADS], ids=lambda c: c.__name__)
def test_workload_inputs_are_pinned(cls):
    inp = cls().generate("small", seed=0)
    assert _digest(inp.keys, inp.values) == _WORKLOAD_PINS[cls.__name__]


# ----------------------------------------------------------------------
# Reference: the generators as first written, one validating numpy call
# per draw (``rng.choice(len(vocab), p=weights)`` per word,
# ``rng.choice(_LETTERS, size=n)`` per letter run).  The pins above hold
# on one numpy; these comparisons hold the equivalence on whichever
# numpy the suite runs under.


def _reference_letters(rng, n):
    return bytes(rng.choice(_LETTERS, size=n))


def _reference_text_lines(total_bytes, seed, vocabulary_size, zipf_s):
    rng = np.random.default_rng(seed)
    vocab, seen = [], set()
    while len(vocab) < vocabulary_size:
        w = _reference_letters(rng, int(np.clip(rng.normal(5.46, 2.53), 2, 16)))
        if w not in seen:
            seen.add(w)
            vocab.append(w)
    ranks = np.arange(1, len(vocab) + 1, dtype=float) ** (-zipf_s)
    weights = ranks / ranks.sum()
    lines, produced = [], 0
    while produced < total_bytes:
        words, ln = [], 0
        target = max(8, int(rng.normal(32.44, 2.59)))
        while ln < target:
            w = vocab[int(rng.choice(len(vocab), p=weights))]
            words.append(w)
            ln += len(w) + 1
        lines.append(b" ".join(words))
        produced += len(lines[-1])
    return lines


def _reference_match_lines(total_bytes, keyword, seed):
    rng = np.random.default_rng(seed)
    lines, produced = [], 0
    while produced < total_bytes:
        target = max(len(keyword) + 4, int(rng.normal(44.52, 2.68)))
        body = _reference_letters(rng, target)
        if rng.random() < 1 / 3.83:
            pos = int(rng.integers(0, max(1, target - len(keyword))))
            body = body[:pos] + keyword + body[pos + len(keyword):]
        lines.append(body)
        produced += len(body)
    return lines


def _reference_html_chunks(total_bytes, seed, link_mean, link_std):
    rng = np.random.default_rng(seed)
    sigma = 1.1
    mu = np.log(63.9) - sigma**2 / 2
    chunks, produced = [], 0
    while produced < total_bytes:
        body = bytearray(_reference_letters(
            rng, int(np.clip(rng.lognormal(mu, sigma), 8, 2048))))
        if rng.random() < 1 / 7.94:
            url_len = int(np.clip(rng.normal(link_mean, link_std), 8, 120))
            anchor = (b'<a href="http://'
                      + _reference_letters(rng, max(1, url_len - 7)) + b'">')
            if len(body) < len(anchor) + 1:
                body.extend(_reference_letters(rng, len(anchor)))
            pos = int(rng.integers(0, max(1, len(body) - len(anchor))))
            body[pos:pos + len(anchor)] = anchor
        chunks.append(bytes(body))
        produced += len(chunks[-1])
    return chunks


@pytest.mark.parametrize("total_bytes,seed,vocabulary_size,zipf_s", [
    (0, 0, 4096, 1.05),
    (3_000, 1, 1, 1.05),
    (3_000, 2, 2, 0.5),
    (6_000, 3, 64, 2.0),
    (6_000, 4, 512, 1.05),
    (12_000, 11, 4096, 1.05),
])
def test_text_lines_equal_the_per_word_choice_loop(
        total_bytes, seed, vocabulary_size, zipf_s):
    assert text_lines(total_bytes, seed=seed, vocabulary_size=vocabulary_size,
                      zipf_s=zipf_s) == _reference_text_lines(
        total_bytes, seed, vocabulary_size, zipf_s)


@pytest.mark.parametrize("total_bytes,keyword,seed", [
    (0, b"kw", 0), (5_000, b"needle", 1), (5_000, b"x" * 60, 2),
    (20_000, b"abc", 13),
])
def test_match_lines_equal_the_per_run_choice_draw(total_bytes, keyword, seed):
    assert match_lines(total_bytes, keyword, seed=seed) == (
        _reference_match_lines(total_bytes, keyword, seed))


@pytest.mark.parametrize("total_bytes,seed,link_mean,link_std", [
    (0, 0, 31.67, 17.34), (20_000, 1, 31.67, 17.34),
    # Long URLs: anchors outgrow their chunk and the chunk is extended.
    (20_000, 2, 110.0, 40.0), (60_000, 17, 31.67, 17.34),
])
def test_html_chunks_equal_the_per_run_choice_draw(
        total_bytes, seed, link_mean, link_std):
    assert html_chunks(total_bytes, seed=seed, link_mean=link_mean,
                       link_std=link_std) == _reference_html_chunks(
        total_bytes, seed, link_mean, link_std)
