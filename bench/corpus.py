"""Seeded synthetic corpora and embeddings for the benchmark.

Everything is drawn from one numpy generator seeded by the caller, so the
same seed gives byte-identical corpora and embeddings. Properties the
program's cost and quality depend on:

- sentence lengths are spread evenly over [MIN_LEN, MAX_LEN] in a seeded
  order: CRF cost grows as n*k^2 and LSTM cost as n*h^2, and a padded batch
  decoder pays for the length spread. Every seed gets the same multiset of
  lengths, so that seeds differ in content but not in the amount of work;
- tokens are drawn from Zipf-distributed lexicons, one for O and one per
  (entity type, B/I) pair, so a trainable embedding table sees a realistic
  frequency tail; a small share of tokens is swapped into the wrong lexicon
  so that context and transitions matter;
- ingested embeddings are a per-token vector plus a per-tag offset plus
  noise, standing in for a frozen contextual encoder whose output carries
  the tag;
- the label space is any number of entity types in BIO encoding.
"""

from dataclasses import dataclass

import numpy as np

from nerchain import Corpus, EmbeddingSet, EntityTypeSet, Sentence, expand_bio

TYPE_NAMES = ("PER", "LOC", "GRP", "CORP", "PROD", "CW")
DIM = 64  # ingested embedding width
MIN_LEN, MAX_LEN = 5, 40
ZIPF_S = 1.1
ENTITY_RATE = 0.12  # chance an O position opens an entity
TAG_SCALE = 0.8  # scale of the per-tag embedding offset
NOISE = 0.8  # scale of the per-token embedding noise


@dataclass(frozen=True)
class CorpusSpec:
    n_types: int  # entity types; k = 1 + 2 * n_types
    splits: tuple[tuple[str, int], ...]  # (id prefix, sentence count)
    o_vocab: int = 2000  # O lexicon size
    entity_vocab: int = 200  # lexicon size per (type, B/I)
    swap_rate: float = 0.05  # chance a token comes from the wrong lexicon


@dataclass(frozen=True)
class Dataset:
    splits: dict[str, Corpus]
    embeddings: EmbeddingSet  # covers every sentence of every split


def _zipf(n, s):
    p = np.arange(1, n + 1, dtype=np.float64) ** -s
    return p / p.sum()


def _tags(rng, length, n_types):
    tags = []
    while len(tags) < length:
        if rng.random() < ENTITY_RATE:
            t = int(rng.integers(n_types))
            span = min(int(rng.integers(1, 4)), length - len(tags))
            tags.append(1 + 2 * t)
            tags.extend([2 + 2 * t] * (span - 1))
        else:
            tags.append(0)
    return tags


def generate(spec: CorpusSpec, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    voc = expand_bio(EntityTypeSet(TYPE_NAMES[:spec.n_types]))
    k = voc.k
    # lexicon 0 is O; lexicon 1 + 2t is B of type t, 2 + 2t is I of type t
    lexicons = [[f"w{i}" for i in range(spec.o_vocab)]]
    for name in voc.entity_types:
        low = name.lower()
        lexicons.append([f"{low}b{i}" for i in range(spec.entity_vocab)])
        lexicons.append([f"{low}i{i}" for i in range(spec.entity_vocab)])
    sizes = np.array([len(lex) for lex in lexicons])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    # lexicon j's Zipf CDF shifted by j, so one searchsorted draws from any lexicon
    cdf = np.concatenate([j + np.cumsum(_zipf(n, ZIPF_S)) for j, n in enumerate(sizes)])
    token_vectors = rng.normal(size=(int(offsets[-1]), DIM))
    tag_vectors = rng.normal(scale=TAG_SCALE, size=(k, DIM))

    splits = {}
    matrices = {}
    for prefix, count in spec.splits:
        sentences = []
        span = np.arange(MIN_LEN, MAX_LEN + 1)
        lengths = rng.permutation(np.resize(span, count))
        for i, length in enumerate(lengths.tolist()):
            tags = _tags(rng, length, spec.n_types)
            lex = np.array(tags)
            swap = rng.random(length) < spec.swap_rate
            lex[swap] = rng.integers(k, size=int(swap.sum()))
            flat = np.searchsorted(cdf, lex + rng.random(length), side="right")
            rows = np.minimum(flat - offsets[lex], sizes[lex] - 1)
            tokens = tuple(lexicons[j][r] for j, r in zip(lex, rows))
            sid = f"{prefix}{i}"
            sentences.append(Sentence(sid, tokens, tuple(tags)))
            matrices[sid] = (token_vectors[offsets[lex] + rows] + tag_vectors[tags]
                             + rng.normal(scale=NOISE, size=(length, DIM)))
        splits[prefix] = Corpus(tuple(sentences), voc)
    return Dataset(splits, EmbeddingSet(DIM, matrices))
