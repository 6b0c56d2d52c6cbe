"""Same-seed parity check between two versions of the library.

Trains CVPNN, WVPNN, DNN1 and DNN3 at 64x2 for 2 epochs with seed 0 on
``synth_dataset(seed=0)`` and prints, per model, the J history as
``float.hex`` and the sha256 of the saved checkpoint.  Run it once per
version and compare the outputs::

    PYTHONPATH=old/src python tests/parity.py > old.txt
    PYTHONPATH=new/src python tests/parity.py > new.txt
    diff old.txt new.txt

Identical output means bit-identical training and checkpoint bytes.  It
uses only API that has been stable across versions, and pytest does not
collect it (the name does not start with ``test_``).
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import vpsep
from vpsep import ExperimentConfig, checkpoint_save, synth_dataset, train

MODELS = ("CVPNN", "WVPNN", "DNN1", "DNN3")


def main() -> int:
    print(f"vpsep imported from {vpsep.__file__}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = synth_dataset(Path(tmp) / "corpus", seed=0)
        for model in MODELS:
            config = ExperimentConfig(model=model, hidden_width=64,
                                      hidden_layers=2, epochs=2, seed=0)
            ckpt, history = train(config, manifest)
            path = Path(tmp) / f"{model}.ckpt"
            checkpoint_save(path, ckpt)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{model} J {' '.join(j.hex() for j in history)}")
            print(f"{model} sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
