"""Write the null-tail reference corpus, tests/data/null_corpus.jsonl.

Each row is one transcript from one experiment's dimensions, scored against
the registered user's tree, with the Monte-Carlo p-value of an M-draw oracle
(tests/oracles.py) as the reference that test_null_corpus.py holds
hypo.null_tail to.  At M = 4e5 the oracle's own standard error is at most
0.0008, so the maximum over several hundred rows stays well inside the
test's 0.006 bound.

    PYTHONPATH=src:tests python tests/make_null_corpus.py [--samples 400000]

Rows are JSON objects: the experiment, n, k, l, the user tree's temperature
and seed (generate_random_pdt(n, k, tau, default_rng(user_seed))), the
client kind, the server and client actions as strings of digits a - 1, the
oracle's p and its M.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from agentauth import adv
from agentauth.cli import EXPERIMENT_DEFAULTS, LENGTH_SWEEP_GRID, fit_mle_client
from agentauth.engine import run_interaction
from agentauth.hypo import observed_scores, score_tables, step_distributions
from agentauth.models import PdtAgent, generate_random_pdt
from oracles import mc_p_value

OUT = Path(__file__).resolve().parent / "data" / "null_corpus.jsonl"
KINDS = ["legit", "random", "replay", "mle"]


def experiments():
    """(name, n, k, l, client tau): eval-auth and length-sweep over the hypo
    grid, and the clf and probe experiments at their own l."""
    hypo = EXPERIMENT_DEFAULTS["hypo"]
    for l in LENGTH_SWEEP_GRID:
        yield "hypo", hypo["n"], hypo["k"], l, hypo["tau_client"]
    for name in ("clf", "probe"):
        cfg = EXPERIMENT_DEFAULTS[name]
        yield name, cfg["n"], cfg["k"], cfg["l"], cfg["tau_client"]


def encode(actions) -> str:
    return "".join(str(a - 1) for a in actions)


def rows(models_per_experiment, sessions_per_kind, samples, seed):
    for e, (name, n, k, l, tau) in enumerate(experiments()):
        for m in range(models_per_experiment):
            user_seed = 1000 * seed + 10 * e + m
            user = generate_random_pdt(n, k, tau, np.random.default_rng(user_seed))
            rng = np.random.default_rng([seed, e, m])
            server = generate_random_pdt(n, k, 1.0, rng)
            cfg = {"n": n, "k": k, "tau_client": tau}
            mle = fit_mle_client(server, user, cfg, l, rng)
            for kind in KINDS:
                for _ in range(sessions_per_kind):
                    if kind == "legit":
                        client = PdtAgent(user)
                    elif kind == "random":
                        client = adv.make_random_adversary(n, k, tau, rng)
                    elif kind == "replay":
                        recorded = run_interaction(PdtAgent(server), PdtAgent(user), l, rng, rng)
                        client = adv.make_replay_adversary(recorded)
                    else:
                        client = mle
                    h = run_interaction(PdtAgent(server), client, l, rng, rng)
                    q = step_distributions(h.server_actions(), user, h.length)
                    scores = score_tables(q)
                    z = float(observed_scores(scores, h.client_actions()).mean())
                    p_mc = mc_p_value(q, scores, z, samples, rng)
                    yield {
                        "experiment": name, "n": n, "k": k, "l": l, "tau": tau,
                        "user_seed": user_seed, "kind": kind,
                        "server": encode(h.server_actions()),
                        "client": encode(h.client_actions()),
                        "p_mc": round(float(p_mc), 7), "M": samples,
                    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT)
    parser.add_argument("--samples", type=int, default=400_000, help="oracle draws per row")
    parser.add_argument("--models", type=int, default=4, help="user trees per experiment")
    parser.add_argument("--sessions", type=int, default=5, help="sessions per tree and kind")
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    count = 0
    with open(args.out, "w") as f:
        for row in rows(args.models, args.sessions, args.samples, args.seed):
            f.write(json.dumps(row) + "\n")
            count += 1
    print(f"wrote {count} rows to {args.out} in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
