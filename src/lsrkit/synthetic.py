"""Deterministic synthetic retrieval task used by the bundled configs and tests.

Documents are drawn from term "topics" so that queries (sampled from their
relevant document) are answerable by lexical matching, while topic structure
leaves room for useful expansion.
"""

from __future__ import annotations

import argparse
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    TokenizedText,
    Vocabulary,
    build_vocabulary,
    compute_corpus_stats,
    write_collection,
    write_lines,
    write_vocabulary,
)
from .encoders import Bm25Params, encode_bm25_doc, encode_bm25_query
from .evaluation import Qrels, write_qrels


@dataclass
class SyntheticTask:
    vocab: Vocabulary
    docs: list[TokenizedText]
    queries: list[TokenizedText]
    qrels: Qrels
    triples: list[dict]  # JSON-ready records
    expansions: dict[str, list[int]]


NUM_TOPICS = 20
DOC_LEN = (8, 16)  # shortest and longest document, in tokens
NEGATIVES_PER_QUERY = 4


def make_synthetic_task(
    num_docs: int = 400, num_queries: int = 60, vocab_size: int = 300, seed: int = 7
) -> SyntheticTask:
    rng = np.random.default_rng(seed)
    vocab = build_vocabulary(f"t{i:04d}" for i in range(vocab_size))

    topic_terms = [
        sorted(rng.choice(vocab_size, size=max(6, vocab_size // NUM_TOPICS), replace=False).tolist())
        for _ in range(NUM_TOPICS)
    ]
    docs: list[TokenizedText] = []
    doc_topic: list[int] = []
    for i in range(num_docs):
        topic = int(rng.integers(NUM_TOPICS))
        length = int(rng.integers(DOC_LEN[0], DOC_LEN[1] + 1))
        n_topic = max(1, int(round(length * 0.7)))
        tokens = list(rng.choice(topic_terms[topic], size=n_topic, replace=True))
        tokens += list(rng.integers(0, vocab_size, size=length - n_topic))
        rng.shuffle(tokens)
        docs.append(TokenizedText(doc_id=f"d{i:04d}", token_ids=tuple(int(t) for t in tokens)))
        doc_topic.append(topic)

    queries: list[TokenizedText] = []
    judgments: dict[tuple[str, str], int] = {}
    triples: list[dict] = []
    stats = compute_corpus_stats(docs)
    params = Bm25Params()
    for qi in range(num_queries):
        target_index = qi % num_docs
        target = docs[target_index]
        distinct = sorted(set(target.token_ids))
        n_q = min(len(distinct), int(rng.integers(2, 5)))
        q_tokens = tuple(int(t) for t in rng.choice(distinct, size=n_q, replace=False))
        query = TokenizedText(doc_id=f"q{qi:04d}", token_ids=q_tokens)
        queries.append(query)
        judgments[(query.doc_id, target.doc_id)] = 1

        # j indexes the docs other than the target, as a pool without it would
        negs = [docs[j + (j >= target_index)]
                for j in rng.choice(num_docs - 1, size=NEGATIVES_PER_QUERY, replace=False).tolist()]
        qv = encode_bm25_query(query, stats)
        teacher_pos, *teacher_negs = (qv.dot(v) for v in encode_bm25_doc([target, *negs], stats, params))
        triples.append(
            {
                "q": query.doc_id,
                "pos": target.doc_id,
                "negs": [n.doc_id for n in negs],
                "teacher": {"pos": teacher_pos, "negs": teacher_negs},
            }
        )

    expansions: dict[str, list[int]] = {}
    for doc, topic in zip(docs, doc_topic):
        present = set(doc.token_ids)
        extra = list(itertools.islice((t for t in topic_terms[topic] if t not in present), 4))
        expansions[doc.doc_id] = extra

    return SyntheticTask(
        vocab=vocab,
        docs=docs,
        queries=queries,
        qrels=Qrels(judgments=judgments),
        triples=triples,
        expansions=expansions,
    )


def write_task(task: SyntheticTask, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_vocabulary(task.vocab, directory / "vocab.txt")
    write_collection(task.docs, task.vocab, directory / "collection.tsv")
    write_collection(task.queries, task.vocab, directory / "queries.tsv")
    write_qrels(task.qrels, directory / "qrels.txt")
    write_lines(directory / "triples.jsonl", map(json.dumps, task.triples))
    expansions = [TokenizedText(doc_id=doc_id, token_ids=tuple(terms)) for doc_id, terms in task.expansions.items()]
    write_collection(expansions, task.vocab, directory / "expansions.tsv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Generate the bundled synthetic retrieval task.")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--docs", type=int, default=400)
    parser.add_argument("--queries", type=int, default=60)
    parser.add_argument("--vocab-size", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    task = make_synthetic_task(
        num_docs=args.docs,
        num_queries=args.queries,
        vocab_size=args.vocab_size,
        seed=args.seed,
    )
    write_task(task, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
