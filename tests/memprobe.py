"""Peak memory of one training epoch on a larger synthetic split.

Builds ``synth_dataset(seed=0)`` with 24 training clips of 10 s (about
15k frames) and trains CVPNN, WVPNN and DNN1 at 64x2 for one epoch on it,
each model in a fresh Python process.  Per model it prints the process's
peak RSS before training (imports and manifest) and over the whole run,
and the wall time of the ``train`` call, which loads the split and runs
the epoch.  Run it from a checkout, once per version to compare::

    PYTHONPATH=src python3 tests/memprobe.py

The child processes inherit the environment, so ``PYTHONPATH`` and
``OPENBLAS_NUM_THREADS`` apply to them too.  It takes about 13 s in all
on a 2-vCPU VM, and pytest does not collect it (the name does not start
with ``test_``).
"""

import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MODELS = ("CVPNN", "WVPNN", "DNN1")
N_TRAIN, DURATION_S = 24, 10.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def child(model: str, root: str) -> int:
    """Train one model for one epoch and print one JSON line."""
    from vpsep import ExperimentConfig, load_manifest, train

    manifest = load_manifest(root)
    before = peak_rss_mib()
    config = ExperimentConfig(model=model, hidden_width=64, hidden_layers=2,
                              epochs=1, seed=0)
    t0 = time.perf_counter()
    train(config, manifest)
    train_s = time.perf_counter() - t0
    print(json.dumps({"before_mib": before, "peak_mib": peak_rss_mib(),
                      "train_s": train_s}))
    return 0


def run() -> int:
    from vpsep import synth_dataset

    print(f"{N_TRAIN} train clips of {DURATION_S:g} s, 64x2, 1 epoch")
    print(f"{'model':8}{'before MiB':>12}{'peak MiB':>10}{'train s':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        synth_dataset(tmp, seed=0, n_train=N_TRAIN, n_test=0, duration_s=DURATION_S)
        for model in MODELS:
            done = subprocess.run([sys.executable, __file__, "--child", model, tmp],
                                  capture_output=True, text=True)
            if done.returncode:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            r = json.loads(done.stdout.splitlines()[-1])
            print(f"{model:8}{r['before_mib']:12.0f}{r['peak_mib']:10.0f}"
                  f"{r['train_s']:9.1f}", flush=True)
    return 0


def main(argv) -> int:
    if not argv:
        return run()
    if len(argv) == 3 and argv[0] == "--child":
        return child(argv[1], argv[2])
    print("usage: memprobe.py", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
