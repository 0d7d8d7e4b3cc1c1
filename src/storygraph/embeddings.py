"""Vocabulary construction and initial node embeddings.

The vocabulary is built from the training split only; id 0 is reserved for
the unknown token, so words first seen at test time still map to a defined
node. Rows of the embedding table come from a pretrained word-vector file
where available and are sampled uniformly from [-0.01, 0.01] otherwise
(small norm keeps untrained words near-neutral in max pooling).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import StoryPointLevel, TokenizedDocument
from .errors import DimensionMismatchError, EmptyTrainingSetError

UNKNOWN_TOKEN = "<unk>"
DEFAULT_DIM = 300

PROVENANCE_RESERVED = "reserved"
PROVENANCE_PRETRAINED = "pretrained"
PROVENANCE_RANDOM = "random"

OOV_INIT_SCALE = 0.01


@dataclass
class Vocabulary:
    """Dense token ids over the training split; id 0 is the unknown token."""

    id_to_token: list[str]
    token_to_id: dict[str, int]
    counts: list[int]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, 0)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(tok, 0) for tok in tokens]

    def encode_document(self, doc: TokenizedDocument) -> "EncodedDocument":
        return EncodedDocument(
            doc_id=doc.doc_id,
            token_ids=tuple(self.encode(doc.tokens)),
            level=doc.level,
            raw_story_point=doc.raw_story_point,
        )

    def encode_all(self, docs: Iterable[TokenizedDocument]) -> list["EncodedDocument"]:
        return [self.encode_document(d) for d in docs]


@dataclass(frozen=True)
class EncodedDocument:
    """A document with tokens replaced by vocabulary ids (0 = unknown)."""

    doc_id: str
    token_ids: tuple[int, ...]
    level: StoryPointLevel
    raw_story_point: int


@dataclass
class EmbeddingTable:
    """Initial node vectors, one row per vocabulary id.

    provenance[i] records where row i came from: "pretrained" (copied from
    the vector file), "random" (uniform init), or "reserved" (the zero
    unknown-token row).
    """

    matrix: np.ndarray  # (V, d) float64
    provenance: list[str]

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def oov_fraction(self) -> float:
        """Fraction of real vocabulary rows (id >= 1) randomly initialized."""
        real = self.provenance[1:]
        if not real:
            return 0.0
        return sum(p == PROVENANCE_RANDOM for p in real) / len(real)


def load_pretrained_vectors(
    path: str | Path, tokens: Iterable[str], dim: int = DEFAULT_DIM
) -> dict[str, np.ndarray]:
    """The rows of `tokens` in a plain-text vector file, which holds one
    token followed by `dim` space-separated floats per line.

    One streaming pass: every line's field count is checked, but numbers
    are converted only on lines whose token is wanted, so memory follows
    `tokens`, not the file. A line with the wrong field count, and a wanted
    line holding a non-numeric or non-finite (nan, inf, overflowing) value,
    is skipped and counted; if skipped lines outnumber the rest, the file is
    judged to be of a different dimensionality and DimensionMismatchError is
    raised. A token listed twice keeps its last good row; a wanted token
    absent from the file is absent from the result.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"vector file not found: {path}")
    wanted = frozenset(tokens)
    vectors: dict[str, np.ndarray] = {}
    good = 0
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            # a line of dim + 1 fields holds exactly dim separators
            if line.count(" ") != dim:
                skipped += 1
                continue
            token, _, rest = line.partition(" ")
            if token in wanted:
                try:
                    vec = np.fromiter(
                        map(float, rest.rstrip("\n").split(" ")),
                        dtype=np.float64,
                        count=dim,
                    )
                except ValueError:
                    skipped += 1
                    continue
                if not np.isfinite(vec).all():
                    skipped += 1
                    continue
                vectors[token] = vec
            good += 1
    if skipped > good:
        raise DimensionMismatchError(
            f"{path}: {skipped} lines skipped vs {good} parsed; "
            f"file does not look {dim}-dimensional"
        )
    return vectors


def build_vocab(
    train_docs: Sequence[TokenizedDocument],
    pretrained: Mapping[str, np.ndarray],
    seed: int,
    dim: int | None = None,
) -> tuple[Vocabulary, EmbeddingTable]:
    """Build the training vocabulary and its initial embedding matrix.

    Ids are assigned in first-occurrence order over the training documents.
    Rows are copied from `pretrained` when present, otherwise sampled
    uniformly from [-OOV_INIT_SCALE, OOV_INIT_SCALE] under `seed`; the
    unknown-token row is zero. Fully determined by (docs, pretrained, seed).
    """
    if not train_docs:
        raise EmptyTrainingSetError("cannot build a vocabulary from zero documents")
    if dim is None:
        dim = len(next(iter(pretrained.values()))) if pretrained else DEFAULT_DIM

    id_to_token = [UNKNOWN_TOKEN]
    token_to_id = {UNKNOWN_TOKEN: 0}
    counts = [0]
    for doc in train_docs:
        for tok in doc.tokens:
            idx = token_to_id.get(tok)
            if idx is None:
                token_to_id[tok] = len(id_to_token)
                id_to_token.append(tok)
                counts.append(1)
            else:
                counts[idx] += 1
    vocab = Vocabulary(id_to_token=id_to_token, token_to_id=token_to_id, counts=counts)

    rng = np.random.default_rng(seed)
    matrix = np.zeros((vocab.size, dim), dtype=np.float64)
    provenance = [PROVENANCE_RESERVED]
    for idx in range(1, vocab.size):
        vec = pretrained.get(id_to_token[idx])
        if vec is not None and len(vec) == dim:
            matrix[idx] = vec
            provenance.append(PROVENANCE_PRETRAINED)
        else:
            matrix[idx] = rng.uniform(-OOV_INIT_SCALE, OOV_INIT_SCALE, size=dim)
            provenance.append(PROVENANCE_RANDOM)
    return vocab, EmbeddingTable(matrix=matrix, provenance=provenance)


def dump_vocabulary(
    vocab: Vocabulary, table: EmbeddingTable, path: str | Path
) -> None:
    """Write one `token<TAB>id<TAB>count<TAB>provenance` line per entry."""
    with open(path, "w", encoding="utf-8") as handle:
        for idx, token in enumerate(vocab.id_to_token):
            handle.write(
                f"{token}\t{idx}\t{vocab.counts[idx]}\t{table.provenance[idx]}\n"
            )
