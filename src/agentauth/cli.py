"""Command line harness: model management, accuracy experiments (CSV out),
probe-policy training/evaluation, and the networked serve/client entry points.

Defaults reproduce the three experiment families:
  hypo  -- n=10, k=5, l=200, server tau=1.0, client tau=0.1, alpha=0.1
  clf   -- n=3 variant of the same setup for the learned test
  probe -- n=3, k=5, l=100, client tau=0.5 for probe-policy training
Config files are JSON; command line flags override file values.  Every CSV
row carries the seed that reproduces it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from agentauth import adv, clf, hypo, net, rl
from agentauth.engine import derive_key, load_transcript, run_interaction
from agentauth.models import Pdt, PdtAgent, generate_random_pdt, load_pdt, save_pdt

EXPERIMENT_DEFAULTS = {
    "hypo": {
        "n": 10,
        "k": 5,
        "l": 200,
        "tau_server": 1.0,
        "tau_client": 0.1,
        "alpha": 0.1,
        "mc_samples": 1000,
        "trials": 100,
    },
    "clf": {
        "n": 3,
        "k": 5,
        "l": 200,
        "tau_server": 1.0,
        "tau_client": 0.1,
        "alpha": 0.1,
        "mc_samples": 1000,
        "trials": 100,
    },
    "probe": {
        "n": 3,
        "k": 5,
        "l": 100,
        "tau_server": 1.0,
        "tau_client": 0.5,
        "alpha": 0.1,
        "mc_samples": 1000,
        "trials": 100,
    },
}

LENGTH_SWEEP_GRID = [10, 25, 50, 100, 200]
METRICS = ["legit", "random", "replay", "mle"]


def load_config(path, experiment: str, overrides: dict) -> dict:
    cfg = dict(EXPERIMENT_DEFAULTS[experiment])
    if path:
        with open(path) as f:
            cfg.update(json.load(f))
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


def generate_models(cfg: dict, seed: int) -> tuple[Pdt, Pdt]:
    ss = np.random.SeedSequence(seed)
    rng_s, rng_u = (np.random.default_rng(s) for s in ss.spawn(2))
    server = generate_random_pdt(cfg["n"], cfg["k"], cfg["tau_server"], rng_s)
    user = generate_random_pdt(cfg["n"], cfg["k"], cfg["tau_client"], rng_u)
    return server, user


def make_metric_client(metric, server, legit, cfg, l, rng):
    """Fresh client handle for one trial of the given metric."""
    if metric == "legit":
        return PdtAgent(legit)
    if metric == "random":
        return adv.make_random_adversary(cfg["n"], cfg["k"], cfg["tau_client"], rng)
    if metric == "replay":
        recorded = run_interaction(PdtAgent(server), PdtAgent(legit), l, rng, rng)
        return adv.make_replay_adversary(recorded)
    raise ValueError(f"unknown metric {metric!r}")


def fit_mle_client(server, legit, cfg, l, rng, observed: int = 100):
    transcripts = [
        run_interaction(PdtAgent(server), PdtAgent(legit), l, rng, rng)
        for _ in range(observed)
    ]
    return adv.make_mle_adversary(transcripts, cfg["n"], cfg["k"])


def metric_accuracy(metric, server, legit, cfg, l, trials, rng, test_fn) -> float:
    """Fraction of trials labeled correctly: accept for legit, reject
    otherwise."""
    mle_client = fit_mle_client(server, legit, cfg, l, rng) if metric == "mle" else None
    correct = 0
    for _ in range(trials):
        client = mle_client or make_metric_client(metric, server, legit, cfg, l, rng)
        history = run_interaction(PdtAgent(server), client, l, rng, rng)
        verdict = test_fn(history, rng)
        if verdict.accept == (metric == "legit"):
            correct += 1
    return correct / trials


def write_csv(path, fieldnames, rows):
    rows = sorted(rows, key=lambda r: tuple(str(r[k]) for k in fieldnames))
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def cmd_gen_models(args) -> int:
    cfg = load_config(args.config, args.experiment, _dim_overrides(args))
    server, user = generate_models(cfg, args.seed)
    os.makedirs(args.out, exist_ok=True)
    save_pdt(server, os.path.join(args.out, "server.json"))
    save_pdt(user, os.path.join(args.out, "user.json"))
    with open(os.path.join(args.out, "gen_config.json"), "w") as f:
        json.dump({**cfg, "seed": args.seed}, f, indent=2)
    print(f"wrote server.json and user.json to {args.out} (seed={args.seed})")
    return 0


def cmd_eval_auth(args) -> int:
    cfg = load_config(args.config, "hypo", _dim_overrides(args))
    server, legit = _load_or_generate(args, cfg)
    trials = args.trials or cfg["trials"]
    l = cfg["l"]
    rng = np.random.default_rng(args.seed)

    def hypo_test(history, trial_rng):
        return hypo.hypothesis_test(
            history, legit, cfg["alpha"], cfg["mc_samples"], trial_rng
        )

    tests = {"hypo": hypo_test}
    if args.classifier:
        model = clf.load_classifier(args.classifier)
        tests["clf"] = lambda history, _rng: clf.classifier_test(model, history)
    rows = []
    for test_name, test_fn in tests.items():
        for metric in METRICS:
            acc = metric_accuracy(metric, server, legit, cfg, l, trials, rng, test_fn)
            rows.append(
                {
                    "test": test_name,
                    "metric": metric,
                    "trials": trials,
                    "accuracy": acc,
                    "seed": args.seed,
                }
            )
            print(f"{test_name:5s} {metric:7s} accuracy={acc:.3f}")
    write_csv(args.out, ["test", "metric", "trials", "accuracy", "seed"], rows)
    return 0


def cmd_length_sweep(args) -> int:
    cfg = load_config(args.config, "hypo", _dim_overrides(args))
    server, legit = _load_or_generate(args, cfg)
    trials = args.trials or cfg["trials"]
    rng = np.random.default_rng(args.seed)

    rows = []
    for l in args.grid or LENGTH_SWEEP_GRID:
        def test_fn(history, trial_rng):
            return hypo.hypothesis_test(
                history, legit, cfg["alpha"], cfg["mc_samples"], trial_rng
            )

        for metric in METRICS:
            acc = metric_accuracy(metric, server, legit, cfg, l, trials, rng, test_fn)
            rows.append(
                {
                    "l": l,
                    "metric": metric,
                    "trials": trials,
                    "accuracy": acc,
                    "seed": args.seed,
                }
            )
            print(f"l={l:4d} {metric:7s} accuracy={acc:.3f}")
    write_csv(args.out, ["l", "metric", "trials", "accuracy", "seed"], rows)
    return 0


def cmd_train_probe(args) -> int:
    cfg = load_config(args.config, "probe", _dim_overrides(args))
    _, legit = _load_or_generate(args, cfg)
    rng = np.random.default_rng(args.seed)
    population = adv.sample_population(
        cfg["n"], cfg["k"], cfg["tau_client"], args.population, args.seed + 1
    )
    env_cfg = rl.ProbeEnvConfig(
        legit=legit, population=population, episode_length=cfg["l"]
    )
    result = rl.train_probe(env_cfg, rng, total_steps=args.steps)
    result.policy.save(args.out)
    if args.log:
        write_csv(
            args.log,
            ["step", "mean_return", "seed"],
            [
                {"step": s, "mean_return": r, "seed": args.seed}
                for s, r in result.log
            ],
        )
    print(f"trained {args.steps} steps; policy written to {args.out}")
    return 0


def cmd_eval_probe(args) -> int:
    cfg = load_config(args.config, "probe", _dim_overrides(args))
    _, legit = _load_or_generate(args, cfg)
    policy = rl.ProbePolicy.load(args.policy)
    rng = np.random.default_rng(args.seed)
    population = adv.sample_population(
        cfg["n"], cfg["k"], cfg["tau_client"], args.trials, args.seed + 2
    )
    modes = {
        "trained-greedy": lambda: rl.PolicyAgent(policy, legit, rl.MODE_GREEDY),
        "trained-eps0.25": lambda: rl.PolicyAgent(policy, legit, rl.MODE_EPS_GREEDY),
        "uniform": lambda: rl.UniformAgent(legit.n_actions),
    }
    rows = []
    for label, factory in modes.items():
        res = rl.evaluate_policy(
            factory, population, legit, cfg["l"], cfg["mc_samples"], rng
        )
        for t in range(cfg["l"]):
            rows.append(
                {
                    "series": label,
                    "step": t + 1,
                    "mean_p": res.mean_p[t],
                    "stderr_p": res.stderr_p[t],
                    "seed": args.seed,
                }
            )
        print(f"{label:16s} final mean p = {res.mean_p[-1]:.3f}")
    write_csv(args.out, ["series", "step", "mean_p", "stderr_p", "seed"], rows)
    if args.replay_out:
        replay_rows = []
        for label, mode in [
            ("trained-greedy", rl.MODE_GREEDY),
            ("trained-eps0.25", rl.MODE_EPS_GREEDY),
            ("uniform", rl.MODE_UNIFORM),
        ]:
            finals, reject_rate = rl.evaluate_replay(
                policy, legit, mode, args.trials, cfg["l"], cfg["mc_samples"], rng,
                alpha=cfg["alpha"],
            )
            replay_rows.append(
                {
                    "series": label,
                    "trials": args.trials,
                    "mean_final_p": float(finals.mean()),
                    "reject_rate": reject_rate,
                    "seed": args.seed,
                }
            )
            print(
                f"replay {label:16s} mean final p = {finals.mean():.3f} "
                f"reject rate = {reject_rate:.2f}"
            )
        write_csv(
            args.replay_out,
            ["series", "trials", "mean_final_p", "reject_rate", "seed"],
            replay_rows,
        )
    return 0


def cmd_serve(args) -> int:
    try:
        config = net.ServerConfig(l=args.l, alpha=args.alpha, seed=args.seed)
    except ValueError as exc:
        print(f"invalid server configuration: {exc}", file=sys.stderr)
        return 1
    registry = {}
    for name in os.listdir(args.registry):
        if name.endswith(".json"):
            registry[name[:-5]] = load_pdt(os.path.join(args.registry, name))
    if not registry:
        print(f"no model files in registry directory {args.registry}", file=sys.stderr)
        return 1
    server_model = load_pdt(args.server_model)
    host, port = _parse_addr(args.listen)
    server = net.AmiServer(
        (host, port), registry, lambda: PdtAgent(server_model), config
    )
    print(f"listening on {host}:{server.server_address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_client(args) -> int:
    model = load_pdt(args.model)
    rng = np.random.default_rng(args.seed)
    result = net.client_authenticate(_parse_addr(args.connect), args.user, model, rng)
    if not result.accepted:
        print("rejected")
        return 2
    if not result.tag_ok:
        print("accepted but key confirmation failed")
        return 3
    print("accepted; session key established")
    return 0


def cmd_derive_key(args) -> int:
    model = load_pdt(args.model)
    history = load_transcript(args.transcript)
    print(derive_key(history, model).hex())
    return 0


def _load_or_generate(args, cfg):
    if getattr(args, "models", None):
        server = load_pdt(os.path.join(args.models, "server.json"))
        legit = load_pdt(os.path.join(args.models, "user.json"))
        return server, legit
    return generate_models(cfg, args.seed)


def _dim_overrides(args) -> dict:
    keys = ("n", "k", "l", "tau_server", "tau_client", "alpha", "mc_samples")
    return {k: getattr(args, k, None) for k in keys}


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def _add_common(p, out_required=True):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=out_required, help="output path")
    p.add_argument("--models", help="directory with server.json / user.json")
    p.add_argument("--trials", type=int)
    for flag, typ in [
        ("--n", int),
        ("--k", int),
        ("--l", int),
        ("--tau-server", float),
        ("--tau-client", float),
        ("--alpha", float),
        ("--mc-samples", int),
    ]:
        p.add_argument(flag, type=typ, dest=flag[2:].replace("-", "_"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agentauth")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-models", help="generate server and user models")
    p.add_argument("--experiment", choices=sorted(EXPERIMENT_DEFAULTS), default="hypo")
    _add_common(p)
    p.set_defaults(func=cmd_gen_models)

    p = sub.add_parser("eval-auth", help="accuracy per metric and test")
    p.add_argument("--classifier", help="trained classifier checkpoint")
    _add_common(p)
    p.set_defaults(func=cmd_eval_auth)

    p = sub.add_parser("length-sweep", help="accuracy as a function of l")
    p.add_argument("--grid", type=int, nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_length_sweep)

    p = sub.add_parser("train-probe", help="train the probing policy")
    p.add_argument("--steps", type=int, default=200_000)
    p.add_argument("--population", type=int, default=100)
    p.add_argument("--log", help="training log CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_train_probe)

    p = sub.add_parser("eval-probe", help="p-value curves for probe policies")
    p.add_argument("--policy", required=True)
    p.add_argument("--replay-out", help="replay summary CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_eval_probe)

    p = sub.add_parser("serve", help="run the authentication server")
    p.add_argument("--listen", default="127.0.0.1:7770")
    p.add_argument("--registry", required=True, help="directory of <user>.json models")
    p.add_argument("--server-model", required=True)
    p.add_argument("--l", type=int, default=200)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", help="authenticate against a server")
    p.add_argument("--connect", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("derive-key", help="derive a session key from a transcript")
    p.add_argument("--model", required=True)
    p.add_argument("--transcript", required=True)
    p.set_defaults(func=cmd_derive_key)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
