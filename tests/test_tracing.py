"""The benchmark's span wrappers still find every layer they trace.

perfbench/spans.py patches module-level names of agentauth; a refactor that
stops calling one of them through its module would silently turn a per-layer
metric into 0.  The check runs in a subprocess so that no wrapper leaks into
other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import collections, json
import numpy as np
import spans

tracer = spans.Tracer()
missing = spans.install(tracer)

from agentauth import adv, engine, net, rl
from agentauth.models import PdtAgent, generate_random_pdt

rng = np.random.default_rng(40)
legit = generate_random_pdt(3, 2, 0.3, rng)
server_model = generate_random_pdt(3, 2, 1.0, rng)
config = net.ServerConfig(l=10, timeout=5.0, seed=1)
server = net.AmiServer(
    ("127.0.0.1", 0), {"u": legit}, lambda: PdtAgent(server_model), config
)
server.start_background()
try:
    net.client_authenticate(server.server_address, "u", legit, np.random.default_rng(2))
finally:
    server.shutdown()
    server.server_close()
engine.run_interaction(PdtAgent(server_model), PdtAgent(legit), 10, rng, rng)
probe = rl.ProbeEnvConfig(
    legit=generate_random_pdt(3, 5, 0.5, rng),
    population=adv.sample_population(3, 5, 0.5, 2, 41),
    episode_length=10,
)
rl.train_probe(probe, rng, total_steps=60)
counts = collections.Counter(span[0] for span in tracer.spans)
print(json.dumps({"missing": missing, "counts": counts}))
"""


def test_span_wrappers_see_every_layer():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    # The Monte-Carlo null and its span target are gone from the program; the
    # target stays in perfbench/spans.py until the benchmark itself changes.
    assert report["missing"] == ["hypo.null_summary"]
    assert report["counts"]["hypo.hypothesis_test"] == 1
    # l=10 is 11 commit-reveal rounds on each side of the loopback session.
    assert report["counts"]["net.exchange_step"] == 22
    assert report["counts"]["engine.run_interaction"] == 1
    # 60 training steps: one policy draw, one environment step and one
    # running update each.
    for span in ("rl.act", "rl.ProbeEnv.step", "hypo.RunningPValue.update"):
        assert report["counts"].get(span) == 60, span
