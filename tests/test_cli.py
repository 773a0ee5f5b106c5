"""The job entrypoint's --config spec handling."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_config_spec_rejects_keys_that_name_no_field(tmp_path):
    """A spec key that is neither input/work_dir/out nor a DedupConfig
    field (here, knobs of removed pipeline paths) must stop the job
    before it runs anything, naming every such key."""
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({
        "input": str(tmp_path / "pages"), "work_dir": str(tmp_path / "wd"),
        "threshold": 0.85, "verify_mode": "signature", "cc_algorithm": "label",
        "verify_broadcast_max_bytes": 0, "signer": "oph", "num_partitions": 8,
        "cc_driver_max_edges": 0, "cc_max_rounds": 5, "hash_version": 2,
    }))
    env = dict(os.environ, PYTHONPATH=REPO)
    proc = subprocess.run(
        [sys.executable, "-m", "fastdup_ray.cli", "run", "--config", str(spec),
         "--num-cpus", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert "verify_mode" in proc.stderr and "cc_algorithm" in proc.stderr
    assert "verify_broadcast_max_bytes" in proc.stderr and "signer" in proc.stderr
    for key in ("num_partitions", "cc_driver_max_edges", "cc_max_rounds", "hash_version"):
        assert key in proc.stderr, key
    assert "threshold" not in proc.stderr.splitlines()[-1]
    assert not (tmp_path / "wd").exists()
