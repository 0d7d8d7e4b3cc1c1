"""Vocabulary construction and initial node embeddings.

The vocabulary is built from the training split only; id 0 is reserved for
the unknown token, so words first seen at test time still map to a defined
node. Rows of the embedding table come from a pretrained word-vector file
where available and are sampled uniformly from [-0.01, 0.01] otherwise
(small norm keeps untrained words near-neutral in max pooling).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import StoryPointLevel, TokenizedDocument, bucket_level
from .errors import DimensionMismatchError, EmptyTrainingSetError, at_file_offset, named_error

UNKNOWN_TOKEN = "<unk>"

PROVENANCE_RESERVED = "reserved"
PROVENANCE_PRETRAINED = "pretrained"
PROVENANCE_RANDOM = "random"

OOV_INIT_SCALE = 0.01


@dataclass
class Vocabulary:
    """Dense token ids over the training split; id 0 is the unknown token."""

    id_to_token: list[str]
    token_to_id: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(tok, 0) for tok in tokens]

    def encode_document(self, doc: TokenizedDocument) -> "EncodedDocument":
        return EncodedDocument(
            doc_id=doc.doc_id,
            token_ids=tuple(self.encode(doc.tokens)),
            raw_story_point=doc.raw_story_point,
        )

    def encode_all(self, docs: Iterable[TokenizedDocument]) -> list["EncodedDocument"]:
        return [self.encode_document(d) for d in docs]


@dataclass(frozen=True)
class EncodedDocument:
    """A document with tokens replaced by vocabulary ids (0 = unknown)."""

    doc_id: str
    token_ids: tuple[int, ...]
    raw_story_point: int

    @property
    def level(self) -> StoryPointLevel:
        """The effort level of its story point."""
        return bucket_level(self.raw_story_point)


@dataclass
class EmbeddingTable:
    """Initial node vectors, one row per vocabulary id.

    provenance[i] records where row i came from: "pretrained" (copied from
    the vector file), "random" (uniform init), or "reserved" (the zero
    unknown-token row).
    """

    matrix: np.ndarray  # (V, d) float64
    provenance: list[str]

    def oov_fraction(self) -> float:
        """Fraction of real vocabulary rows (id >= 1) randomly initialized."""
        real = self.provenance[1:]
        if not real:
            return 0.0
        return sum(p == PROVENANCE_RANDOM for p in real) / len(real)


def load_pretrained_vectors(
    path: str | Path, tokens: Iterable[str], dim: int
) -> dict[str, np.ndarray]:
    """The rows of `tokens` in a plain-text vector file, which holds one
    token followed by `dim` space-separated floats per line, trailing
    whitespace allowed, in UTF-8 with or without a byte-order mark, as
    corpus.load_issues reads a CSV.

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
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for line in handle:
                # a line of dim + 1 fields holds exactly dim separators,
                # once any trailing whitespace goes: fastText's writer ends
                # each row with a space
                if line.count(" ") != dim:
                    line = line.rstrip()
                    if line.count(" ") != dim:
                        skipped += 1
                        continue
                token, _, rest = line.partition(" ")
                if token in wanted:
                    try:
                        # one call per row, each field read as `float` reads it
                        vec = np.array(rest.rstrip("\n").split(" "), dtype=np.float64)
                    except ValueError:
                        skipped += 1
                        continue
                    if not np.isfinite(vec).all():
                        skipped += 1
                        continue
                    vectors[token] = vec
                good += 1
    except UnicodeDecodeError as err:
        raise named_error(at_file_offset(err, path), path) from None
    if skipped > good:
        raise DimensionMismatchError(
            f"{path}: {skipped} lines skipped vs {good} parsed; "
            f"file does not look {dim}-dimensional"
        )
    return vectors


def build_vocabulary(train_docs: Sequence[TokenizedDocument]) -> Vocabulary:
    """The training vocabulary alone, for callers that read no embeddings.

    Ids are assigned in first-occurrence order over the training documents,
    after the unknown token at id 0.
    """
    if not train_docs:
        raise EmptyTrainingSetError("cannot build a vocabulary from zero documents")
    token_to_id = {UNKNOWN_TOKEN: 0}
    for doc in train_docs:
        for tok in doc.tokens:
            token_to_id.setdefault(tok, len(token_to_id))
    return Vocabulary(id_to_token=list(token_to_id), token_to_id=token_to_id)


def row_provenance(
    vocab: Vocabulary, pretrained: Mapping[str, np.ndarray], dim: int
) -> list[str]:
    """Where each row of vocab's embedding table comes from: a pretrained
    row of dimension `dim` is copied, every other real token is random."""
    provenance = [PROVENANCE_RESERVED]
    for token in vocab.id_to_token[1:]:
        vec = pretrained.get(token)
        pretrained_row = vec is not None and len(vec) == dim
        provenance.append(PROVENANCE_PRETRAINED if pretrained_row else PROVENANCE_RANDOM)
    return provenance


def build_vocab(
    train_docs: Sequence[TokenizedDocument],
    pretrained: Mapping[str, np.ndarray],
    seed: int,
    dim: int,
) -> tuple[Vocabulary, EmbeddingTable]:
    """Build the training vocabulary and its initial embedding matrix.

    Ids are as in build_vocabulary. Rows are copied from `pretrained` when
    row_provenance says so; the random rows, in id order, are one draw
    uniform over [-OOV_INIT_SCALE, OOV_INIT_SCALE] under `seed`; the
    unknown-token row is zero. Fully determined by the four arguments.
    """
    vocab = build_vocabulary(train_docs)
    provenance = row_provenance(vocab, pretrained, dim)
    matrix = np.zeros((vocab.size, dim), dtype=np.float64)
    random_ids = []
    for idx, kind in enumerate(provenance):
        if kind == PROVENANCE_PRETRAINED:
            matrix[idx] = pretrained[vocab.id_to_token[idx]]
        elif kind == PROVENANCE_RANDOM:
            random_ids.append(idx)
    rng = np.random.default_rng(seed)
    matrix[random_ids] = rng.uniform(
        -OOV_INIT_SCALE, OOV_INIT_SCALE, size=(len(random_ids), dim)
    )
    return vocab, EmbeddingTable(matrix=matrix, provenance=provenance)


def dump_vocabulary(
    vocab: Vocabulary, train_docs: Iterable[TokenizedDocument], provenance: Sequence[str],
    path: str | Path,
) -> None:
    """Write one `token<TAB>id<TAB>count<TAB>provenance` line per entry, the
    count taken over `train_docs`, which vocab was built from; `provenance`
    is an EmbeddingTable's, or row_provenance's."""
    counts = Counter(tok for doc in train_docs for tok in doc.tokens)
    with open(path, "w", encoding="utf-8") as handle:
        for idx, token in enumerate(vocab.id_to_token):
            handle.write(f"{token}\t{idx}\t{counts[token]}\t{provenance[idx]}\n")
