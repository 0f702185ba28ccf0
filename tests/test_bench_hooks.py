"""The benchmark's own code must still run against the library it measures.

``perfbench/child.py`` replaces module attributes of crowdrel with timing
wrappers whose info functions read positional arguments. A rename or a
changed argument order breaks ``perfbench/run.py --trace 1``; the first
test catches that in about a second. The second runs the benchmark's
input path: the text fixture, ``crowdrel simulate`` (on the default
panel and on a graded panel spelled as ``wide``'s) and
``run.validate_inputs``, which call the readers and writers of
``crowdrel.data``. Both run in a subprocess because the wrappers patch
the modules, and ``run`` sets the BLAS environment, for the whole process.
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
result = model.train(x, ann, cfg, gold=gold)
model.predict_labels(result.state, x, ann)
model.reliability_scores(result.state, x, ann)
print(json.dumps(sorted({span[0] for span in tracer.spans})))
"""


INPUTS_SCRIPT = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import child, run
tmp = Path(sys.argv[2])
child.text_fixture(str(tmp / "text"), "30", "1")
text = run.Dataset(name="text", cfg={"dataset": "files", "n": "30", "labels": "0,1,2",
                                     "seed": "1"}, dir=tmp / "text")
moon = run.Dataset(name="moon", cfg={"dataset": "moon", "n": "40", "panel": "default",
                                     "seed": "1"}, dir=tmp / "moon")
wide = run.Dataset(name="wide", cfg={"dataset": "moon", "n": "40",
                                     "panel": run._graded(40, 0.05, 0.45), "keep_prob": "0.1",
                                     "seed": "1"}, dir=tmp / "wide")
for ds in (moon, wide):
    ds.write_cfg()
    assert child.main(["cli", "simulate", "-c", str(ds.cfg_path)]) == 0, ds.name
for ds in (text, moon, wide):
    assert run.validate_inputs(ds) == [], ds.name
    assert set(ds.gold) == set(ds.instance_ids) and ds.pairs, ds.name
print(len(text.gold), len(moon.gold), len(wide.gold))
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


@pytest.mark.skipif(not (PERFBENCH / "run.py").exists(), reason="perfbench/ is absent")
def test_benchmark_inputs_are_written_and_pass_its_check(tmp_path):
    proc = subprocess.run([sys.executable, "-c", INPUTS_SCRIPT, str(PERFBENCH), str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1].split() == ["30", "40", "40"]
