"""Same-seed parity check between two versions of the library.

Trains CVPNN, WVPNN, DNN1 and DNN3 at 64x2 for 2 epochs with seed 0 on
``synth_dataset(seed=0)`` and prints, per model, the J history as
``float.hex``, the sha256 of the saved checkpoint and one sha256 for
each of the vocal and music stems that ``separate`` gives for the first
test clip, so a diff shows which stem moved.
For the trained CVPNN and DNN1 and for the soft and binary ideal masks
it also prints every test clip's SDR, SIR, SAR and mixture SDR as
``float.hex`` at ``filter_len`` 512 and 32; the ideal masks print the
stems of ``separate_ideal`` for the first test clip as well.  Those calls
score the whole split row after row.  A last, clip-major section scores
the CVPNN, DNN1 and soft ideal rows at ``filter_len`` 512 one test clip
per call, every row of a clip before the next clip, as a results table
is scored, and prints the same four values under the labels
``<row>/clip-major``: there a clip's later rows reuse the references and
mixture SDRs its first row prepared.
Run it once per version and compare the outputs::

    PYTHONPATH=old/src python tests/parity.py > old.txt
    PYTHONPATH=new/src python tests/parity.py > new.txt
    python tests/parity.py --compare old.txt new.txt

The first line records the thread setup: ``OPENBLAS_NUM_THREADS`` and
the number of usable CPUs.  Training rounds differently for each BLAS
thread count (the J bits and checkpoint bytes move between one and two
threads), so ``--compare`` refuses, with exit code 2, two outputs taken
with different setups or without a recorded one.  Otherwise it requires
the J, sha256 and stem lines to match exactly.  For the per-clip metrics
it prints the largest |difference| in dB per label and metric, and it
exits 1 if any exceeds 1e-9 dB.  Identical output (``diff``) means
bit-identical training, checkpoint bytes, separations and evaluation
metrics.  It uses only API that has been
stable across versions, and pytest does not collect it (the name does
not start with ``test_``).
"""

import difflib
import hashlib
import math
import os
import sys
import tempfile
from pathlib import Path

MODELS = ("CVPNN", "WVPNN", "DNN1", "DNN3")
EVALUATED = ("CVPNN", "DNN1")
FILTER_LENS = (512, 32)
IDEAL_KINDS = ("soft", "binary")
METRICS = ("SDR", "SIR", "SAR", "mix-SDR")
TOLERANCE_DB = 1e-9
SETUP = "setup"


def setup_line() -> str:
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"{SETUP} OPENBLAS_NUM_THREADS={threads} cpus_usable={cpus}"


def print_evaluation(label: str, report) -> None:
    for c in report.clips:
        values = " ".join(x.hex() for x in (c.sdr, c.sir, c.sar, c.mix_sdr))
        print(f"{label} {c.clip_id} {c.source} {values}")


def print_stems(label: str, stems) -> None:
    for name, stem in zip(("vocal", "music"), stems):
        digest = hashlib.sha256(stem.samples.tobytes()).hexdigest()
        print(f"{label} {name} sha256 {digest}")


def read_output(path):
    """The thread-setup line (None if absent), the lines that must match
    exactly, and the per-clip metric values keyed by (model, filter_len,
    clip, source)."""
    setup, exact, metrics = None, [], {}
    for line in Path(path).read_text().splitlines():
        words = line.split()
        if words[:1] == [SETUP]:
            setup = line
        elif len(words) == 8 and words[1].startswith("filter_len="):
            metrics[tuple(words[:4])] = [float.fromhex(w) for w in words[4:]]
        else:
            exact.append(line)
    return setup, exact, metrics


def compare(old_path, new_path) -> int:
    old_setup, old_exact, old_metrics = read_output(old_path)
    new_setup, new_exact, new_metrics = read_output(new_path)
    if old_setup != new_setup:
        print(f"refused: {old_path} was taken with {old_setup or 'no recorded setup'}, "
              f"{new_path} with {new_setup or 'no recorded setup'}")
        return 2
    ok = old_exact == new_exact
    for line in difflib.unified_diff(old_exact, new_exact, str(old_path),
                                     str(new_path), lineterm=""):
        print(line)
    if old_metrics.keys() != new_metrics.keys():
        ok = False
        print("the two outputs score different clips")
    worst = {}
    for key in sorted(old_metrics.keys() & new_metrics.keys()):
        row = worst.setdefault(" ".join(key[:2]), [0.0] * len(METRICS))
        for k, (a, b) in enumerate(zip(old_metrics[key], new_metrics[key])):
            d = 0.0 if a == b else abs(a - b)
            row[k] = max(row[k], math.inf if math.isnan(d) else d)
    print("max |delta| dB".ljust(28) + "".join(m.rjust(10) for m in METRICS))
    for label, row in worst.items():
        print(label.ljust(28) + "".join(f"{d:10.2e}" for d in row))
    ok = ok and all(d <= TOLERANCE_DB for row in worst.values() for d in row)
    print("PASS" if ok else f"FAIL: see the diff above or a metric over {TOLERANCE_DB:g} dB")
    return 0 if ok else 1


def run() -> int:
    import vpsep
    from vpsep import (DatasetManifest, ExperimentConfig, checkpoint_save, evaluate,
                       evaluate_ideal, separate, separate_ideal, synth_dataset, train,
                       wav_read)

    print(f"vpsep imported from {vpsep.__file__}", file=sys.stderr)
    print(setup_line())
    with tempfile.TemporaryDirectory() as tmp:
        manifest = synth_dataset(Path(tmp) / "corpus", seed=0)
        clip = manifest.test_clips[0]
        mix = wav_read(clip.mix_path)
        rows = {}  # row label -> one-row evaluation of a manifest at filter_len 512
        for model in MODELS:
            config = ExperimentConfig(model=model, hidden_width=64,
                                      hidden_layers=2, epochs=2, seed=0)
            ckpt, history = train(config, manifest)
            path = Path(tmp) / f"{model}.ckpt"
            checkpoint_save(path, ckpt)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{model} J {' '.join(j.hex() for j in history)}")
            print(f"{model} sha256 {digest}")
            print_stems(f"{model} {clip.clip_id}", separate(ckpt, mix))
            if model in EVALUATED:
                rows[model] = lambda one, ckpt=ckpt: evaluate(ckpt, one, filter_len=512)
                for flen in FILTER_LENS:
                    print_evaluation(f"{model} filter_len={flen}",
                                     evaluate(ckpt, manifest, filter_len=flen))
        for kind in IDEAL_KINDS:
            stems = separate_ideal(mix, wav_read(clip.vocal_path),
                                   wav_read(clip.music_path), kind=kind)
            print_stems(f"IDEAL-{kind} {clip.clip_id}", stems)
            for flen in FILTER_LENS:
                print_evaluation(f"IDEAL-{kind} filter_len={flen}",
                                 evaluate_ideal(manifest, kind=kind, filter_len=flen))
        rows["IDEAL-soft"] = lambda one: evaluate_ideal(one, kind="soft", filter_len=512)
        for entry in manifest.test_clips:
            one = DatasetManifest(manifest.root, (entry,))
            for label, row in rows.items():
                print_evaluation(f"{label}/clip-major filter_len=512", row(one))
    return 0


def main(argv) -> int:
    if not argv:
        return run()
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    print("usage: parity.py [--compare OLD NEW]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
