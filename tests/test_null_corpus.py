"""hypo.null_tail against the committed Monte-Carlo reference corpus.

tests/data/null_corpus.jsonl holds transcripts from every experiment's
(n, k, l), legitimate clients and all three impostors, each with the p-value
of a Monte-Carlo oracle at M >= 4e5 draws (rebuild it with
tests/make_null_corpus.py).  The deterministic p must stay within BOUND of
the reference on every row, and give the same verdict at ALPHA except where
the reference itself lies within BOUND of ALPHA.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from agentauth.engine import InteractionHistory
from agentauth.hypo import p_value
from agentauth.models import generate_random_pdt

CORPUS = Path(__file__).resolve().parent / "data" / "null_corpus.jsonl"
BOUND = 0.006
ALPHA = 0.1


@pytest.fixture(scope="module")
def corpus():
    with open(CORPUS) as f:
        return [json.loads(line) for line in f]


def test_corpus_covers_every_experiment(corpus):
    assert len(corpus) >= 500
    assert min(row["M"] for row in corpus) >= 400_000
    dims = {(row["n"], row["k"], row["l"]) for row in corpus}
    assert {(10, 5, l) for l in (10, 25, 50, 100, 200)} | {(3, 5, 200), (3, 5, 100)} <= dims
    assert {row["kind"] for row in corpus} == {"legit", "random", "replay", "mle"}


def test_null_tail_matches_monte_carlo_reference(corpus):
    gaps, flips, tree = [], [], None
    # Rows come grouped by user tree; keep one paper-size tree (18 MB) at a time.
    for row in corpus:
        if tree != (row["n"], row["k"], row["tau"], row["user_seed"]):
            tree = (row["n"], row["k"], row["tau"], row["user_seed"])
            user = generate_random_pdt(*tree[:3], np.random.default_rng(tree[3]))
        steps = [(int(s) + 1, int(c) + 1) for s, c in zip(row["server"], row["client"])]
        p = p_value(InteractionHistory(steps=steps, n_actions=row["n"]), user)
        gaps.append(abs(p - row["p_mc"]))
        if (p >= ALPHA) != (row["p_mc"] >= ALPHA) and abs(row["p_mc"] - ALPHA) >= BOUND:
            flips.append((row, p))
    worst = int(np.argmax(gaps))
    assert gaps[worst] <= BOUND, (corpus[worst], gaps[worst])
    assert flips == []
