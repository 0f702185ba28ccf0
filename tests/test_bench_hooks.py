"""The benchmark's span tracer must still find and call everything it wraps.

``perfbench/child.py`` replaces module attributes of crowdrel with timing
wrappers whose info functions read positional arguments. A rename or a
changed argument order breaks ``perfbench/run.py --trace 1``; this test
catches that in about a second. It runs in a subprocess because the
wrappers patch the modules for the whole process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import child
tracer = child.Tracer()
child.install(tracer)
from crowdrel import data, model, simulate
instances, gold = simulate.gen_2d("moon", 30, seed=0)
ann = simulate.simulate_annotations(gold, 2, simulate.default_panel(2), seed=0,
                                    instance_ids=[i.id for i in instances])
x = data.feature_matrix(instances)
cfg = model.TrainConfig(max_outer=1, inner_iters=1, pretrain_epochs=1)
result = model.train(x, ann, cfg, gold=gold.to_array(30))
model.predict_labels(result.state, x, ann)
model.reliability_scores(result.state, x, ann)
print(json.dumps(sorted({span[0] for span in tracer.spans})))
"""


@pytest.mark.skipif(not (PERFBENCH / "child.py").exists(), reason="perfbench/ is absent")
def test_tracer_wraps_and_calls_every_target():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(PERFBENCH)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert {"neural.forward", "neural.backward.clf", "neural.backward.est", "neural.adam",
            "model.train", "model.pretrain", "model.e_step", "model.posterior",
            "model.pair_inputs", "model.predict", "model.reliability_scores",
            "baselines.ds"} <= names
