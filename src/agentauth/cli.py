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
from pathlib import Path

import numpy as np

from agentauth import adv, clf, engine, hypo, net, rl
from agentauth.engine import derive_key, load_transcript, run_interaction, run_pdt_sessions
from agentauth.models import Pdt, PdtAgent, generate_random_pdt, load_pdt, save_pdt

EXPERIMENT_DEFAULTS = {
    "hypo": {
        "n": 10,
        "k": 5,
        "l": 200,
        "tau_server": 1.0,
        "tau_client": 0.1,
        "alpha": 0.1,
        "trials": 100,
    },
    "clf": {
        "n": 3,
        "k": 5,
        "l": 200,
        "tau_server": 1.0,
        "tau_client": 0.1,
        "alpha": 0.1,
        "trials": 100,
    },
    "probe": {
        "n": 3,
        "k": 5,
        "l": 100,
        "tau_server": 1.0,
        "tau_client": 0.5,
        "alpha": 0.1,
        "trials": 100,
    },
}

LENGTH_SWEEP_GRID = [10, 25, 50, 100, 200]
METRICS = ["legit", "random", "replay", "mle"]
# eval-probe's server series: CSV label -> rl deployment mode.
PROBE_SERIES = {
    "trained-greedy": rl.MODE_GREEDY,
    "trained-eps0.25": rl.MODE_EPS_GREEDY,
    "uniform": rl.MODE_UNIFORM,
}
# What reading an input file raises for a missing or malformed file.
_LOAD_ERRORS = (OSError, KeyError, TypeError, ValueError)
# Lowest value of each count in a config.  A probe episode needs a step to
# score, and eval-probe's curves need two sessions for their standard error.
_LOWEST = {"n": 2, "k": 1, "l": 0, "trials": 1}
_LOWEST_PROBE = {**_LOWEST, "l": 1}
_LOWEST_EVAL_PROBE = {**_LOWEST_PROBE, "trials": 2}


def load_config(path, experiment: str, overrides: dict, lowest: dict | None = None) -> dict:
    """The experiment's defaults, updated by the config file and then by the
    overrides that are not None; a value out of range, or a count below
    `lowest` (by default the experiment's), is refused."""
    cfg = dict(EXPERIMENT_DEFAULTS[experiment])
    if path:
        cfg.update(_read(lambda p: dict(json.loads(Path(p).read_text())), path))
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    if lowest is None:
        lowest = _LOWEST_PROBE if experiment == "probe" else _LOWEST
    for key, least in lowest.items():
        if not (type(cfg[key]) is int and cfg[key] >= least):
            raise _Failed(f"{key} must be an integer >= {least}, got {cfg[key]!r}")
    if not (type(cfg["alpha"]) in (int, float) and 0 < cfg["alpha"] < 1):
        raise _Failed(f"alpha must be in (0, 1), got {cfg['alpha']!r}")
    for key in ("tau_server", "tau_client"):
        if not (type(cfg[key]) in (int, float) and cfg[key] > 0):
            raise _Failed(f"{key} must be a number above 0, got {cfg[key]!r}")
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
    """MLE imitation of the legitimate client from `observed` sessions, run
    as one batch that draws rng as one run_interaction per session would."""
    transcripts = run_pdt_sessions(server, [legit] * observed, rng.random((observed, l + 1, 2)))
    return adv.make_mle_adversary(transcripts, cfg["n"], cfg["k"])


def metric_accuracy(metric, server, legit, cfg, l, trials, rng, test_fn) -> float:
    """Fraction of trials labeled correctly: accept for legit, reject
    otherwise."""
    mle_client = fit_mle_client(server, legit, cfg, l, rng) if metric == "mle" else None
    correct = 0
    for _ in range(trials):
        client = mle_client or make_metric_client(metric, server, legit, cfg, l, rng)
        history = run_interaction(PdtAgent(server), client, l, rng, rng)
        verdict = test_fn(history)
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
    cfg = load_config(args.config, args.experiment, _overrides(args))
    server, user = generate_models(cfg, args.seed)
    os.makedirs(args.out, exist_ok=True)
    save_pdt(server, os.path.join(args.out, "server.json"))
    save_pdt(user, os.path.join(args.out, "user.json"))
    with open(os.path.join(args.out, "gen_config.json"), "w") as f:
        json.dump({**cfg, "seed": args.seed}, f, indent=2)
    print(f"wrote server.json and user.json to {args.out} (seed={args.seed})")
    return 0


def accuracy_loop(args, key: str, label: str, grid=None, classifier=None) -> int:
    """Accuracy of each (l, test, metric) cell, one CSV row per cell keyed by
    its `key` column ("l" or "test"): eval-auth runs the configured l alone,
    with hypo and the optional clf test, and length-sweep runs hypo over its
    grid.  `label` formats a cell's l and test for the printed line."""
    cfg = load_config(args.config, "hypo", _overrides(args))
    server, legit = _load_or_generate(args, cfg)
    trials = cfg["trials"]
    rng = np.random.default_rng(args.seed)

    def hypo_test(history):
        return hypo.hypothesis_test(history, legit, cfg["alpha"])

    tests = {"hypo": hypo_test}
    if classifier is not None:
        model, n, l = classifier
        if (n, l) != (legit.n_actions, cfg["l"]):
            raise _Failed(
                f"{args.classifier}: classifier was saved for n={n}, l={l}, "
                f"but this run has n={legit.n_actions}, l={cfg['l']}"
            )
        tests["clf"] = lambda history: clf.classifier_test(model, history)
    rows = []
    for l in grid or [cfg["l"]]:
        for test_name, test_fn in tests.items():
            cell = {"l": l, "test": test_name}
            for metric in METRICS:
                acc = metric_accuracy(metric, server, legit, cfg, l, trials, rng, test_fn)
                rows.append(
                    {
                        key: cell[key],
                        "metric": metric,
                        "trials": trials,
                        "accuracy": acc,
                        "seed": args.seed,
                    }
                )
                print(f"{label.format(**cell)} {metric:7s} accuracy={acc:.3f}")
    write_csv(args.out, [key, "metric", "trials", "accuracy", "seed"], rows)
    return 0


def cmd_eval_auth(args) -> int:
    classifier = _read(clf.load_classifier, args.classifier) if args.classifier else None
    return accuracy_loop(args, "test", "{test:5s}", classifier=classifier)


def cmd_length_sweep(args) -> int:
    if args.grid and min(args.grid) < 0:
        raise _Failed(f"--grid {min(args.grid)} is below 0")
    return accuracy_loop(args, "l", "l={l:4d}", grid=args.grid or LENGTH_SWEEP_GRID)


def cmd_train_probe(args) -> int:
    for option, count in (("--steps", args.steps), ("--population", args.population)):
        if count < 1:
            raise _Failed(f"{option} {count} is below 1")
    cfg = load_config(args.config, "probe", _overrides(args))
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
    cfg = load_config(args.config, "probe", _overrides(args), _LOWEST_EVAL_PROBE)
    _, legit = _load_or_generate(args, cfg)
    policy = _read(rl.ProbePolicy.load, args.policy)
    want = (legit.num_nodes, legit.n_actions)
    if policy.preferences.shape != want:
        raise _Failed(
            f"{args.policy}: policy has {policy.preferences.shape} preferences, "
            f"but n={legit.n_actions}, k={legit.depth} needs {want}"
        )
    rng = np.random.default_rng(args.seed)
    population = adv.sample_population(
        cfg["n"], cfg["k"], cfg["tau_client"], cfg["trials"], args.seed + 2
    )
    rows = []
    for label, mode in PROBE_SERIES.items():
        res = rl.evaluate_policy(
            lambda: rl.make_server(policy, legit, mode), population, legit, cfg["l"], rng
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
        for label, mode in PROBE_SERIES.items():
            finals, reject_rate = rl.evaluate_replay(
                policy, legit, mode, cfg["trials"], cfg["l"], rng, alpha=cfg["alpha"]
            )
            replay_rows.append(
                {
                    "series": label,
                    "trials": cfg["trials"],
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
        raise _Failed(f"invalid server configuration: {exc}") from None
    registry = {
        name[:-5]: _read(load_pdt, os.path.join(args.registry, name))
        for name in _read(os.listdir, args.registry)
        if name.endswith(".json")
    }
    server_model = _read(load_pdt, args.server_model)
    if not registry:
        raise _Failed(f"no model files in registry directory {args.registry}")
    host, port = _parse_addr(args.listen)
    try:
        server = net.AmiServer((host, port), registry, lambda: PdtAgent(server_model), config)
    except OSError as exc:
        raise _Failed(f"cannot listen on {host}:{port}: {type(exc).__name__}: {exc}") from None
    print(f"listening on {host}:{server.server_address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_client(args) -> int:
    model = _read(load_pdt, args.model)
    rng = np.random.default_rng(args.seed)
    try:
        result = net.client_authenticate(_parse_addr(args.connect), args.user, model, rng)
    except (OSError, net.FrameError, net.ProtocolError, engine.ProtocolViolation) as exc:
        raise _Failed(f"{args.connect}: {type(exc).__name__}: {exc}") from None
    if not result.accepted:
        print("rejected")
        return 2
    if not result.tag_ok:
        print("accepted but key confirmation failed")
        return 3
    print("accepted; session key established")
    return 0


def cmd_derive_key(args) -> int:
    model = _read(load_pdt, args.model)
    history = _read(load_transcript, args.transcript)
    print(derive_key(history, model).hex())
    return 0


class _Failed(Exception):
    """A subcommand cannot go on; main prints the reason as one stderr line
    and exits 1."""


def _read(loader, path):
    """loader(path), with a missing or malformed file raised as _Failed."""
    try:
        return loader(path)
    except _LOAD_ERRORS as exc:
        raise _Failed(f"{path}: {type(exc).__name__}: {exc}") from None


def _load_or_generate(args, cfg):
    """Models from cfg and the seed, or from --models, whose n and k replace cfg's."""
    if not getattr(args, "models", None):
        return generate_models(cfg, args.seed)
    server = _read(load_pdt, os.path.join(args.models, "server.json"))
    legit = _read(load_pdt, os.path.join(args.models, "user.json"))
    if server.n_actions != legit.n_actions:
        raise _Failed(f"{args.models}: server.json and user.json differ in n")
    for key, value in (("n", legit.n_actions), ("k", legit.depth)):
        given = getattr(args, key, None)
        if given not in (None, value):
            raise _Failed(f"--{key} {given} disagrees with {key}={value} of {args.models}")
        cfg[key] = value
    return server, legit


def _overrides(args) -> dict:
    keys = ("n", "k", "l", "tau_server", "tau_client", "alpha", "trials")
    return {k: getattr(args, k, None) for k in keys}


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not (port.isdecimal() and int(port) <= 65535):
        raise _Failed(f"address {text!r} is not [host:]port with a port in 0..65535")
    return host or "127.0.0.1", int(port)


def _add_common(p, out_required=True):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=out_required, help="output path")
    p.add_argument("--models", help="directory with server.json / user.json; sets n and k")
    for flag, typ in [
        ("--n", int),
        ("--k", int),
        ("--l", int),
        ("--tau-server", float),
        ("--tau-client", float),
        ("--alpha", float),
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
    p.add_argument("--trials", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_eval_auth)

    p = sub.add_parser("length-sweep", help="accuracy as a function of l")
    p.add_argument("--grid", type=int, nargs="+")
    p.add_argument("--trials", type=int)
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
    p.add_argument("--trials", type=int)
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
    try:
        return args.func(args)
    except _Failed as exc:
        print(f"agentauth {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
