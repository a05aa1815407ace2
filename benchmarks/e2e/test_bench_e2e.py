"""Smoke test of the end-to-end benchmark: every workload at toy size.

Runs ``run.py --smoke`` (5k-node graphs, 1 s windows) untraced and
traced, and checks the contract ``BENCHMARK.json`` states: every metric
emitted with its declared unit, no wrong or failed answers, every layer
present in the trace, and inputs that depend on the seed alone.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def _run(trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    # One line per workload, then the all-workload summary.
    assert len(lines) == len(SPEC["workloads"]) + 1
    return lines[:-1]


@pytest.fixture(scope="module")
def untraced():
    return _run(0)


@pytest.fixture(scope="module")
def traced():
    return _run(1)


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced):
    for line in untraced:
        units = {name: m["unit"] for name, m in line["metrics"].items()}
        assert units == _declared("end_to_end")
        assert all(m["value"] > 0 for m in line["metrics"].values()), line


def test_every_layer_appears_in_the_trace(traced):
    for line in traced:
        units = {name: m["unit"] for name, m in line["metrics"].items()}
        assert units == _declared("per_layer")


def test_no_wrong_or_failed_answers(untraced, traced):
    for line in untraced + traced:
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0


def _load_run_module():
    sys.path.insert(0, str(HERE))
    spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
    module = sys.modules["e2e_run"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _input_digest(run, name: str, seed: int, run_dir: Path) -> str:
    workload = run.WORKLOADS[name]
    inputs = run.generate_inputs(workload, seed, run.SMOKE, run_dir)
    digest = hashlib.sha256((run_dir / "edges.txt").read_bytes())
    digest.update(inputs["update_edges"].tobytes())
    if workload.loop == "open":
        offsets, pairs = run.read_schedule(workload, inputs, run.SMOKE, 1.0)
        digest.update(offsets.tobytes() + pairs.tobytes())
    else:
        digest.update(run.PairStream(inputs["rng"], inputs["n"]).take(1000).tobytes())
    return digest.hexdigest()


def test_same_seed_gives_identical_inputs(tmp_path):
    run = _load_run_module()
    for name in run.WORKLOADS:
        digests = []
        for attempt in ("a", "b"):
            run_dir = tmp_path / f"{name}-{attempt}"
            run_dir.mkdir()
            digests.append(_input_digest(run, name, 7, run_dir))
        other = tmp_path / f"{name}-other"
        other.mkdir()
        assert digests[0] == digests[1]
        assert _input_digest(run, name, 8, other) != digests[0]
