"""Command-line front end.

    vpsep synth    --out corpus --seed 0 --train 6 --test 4 --duration 4.0
    vpsep train    --data corpus --model CVPNN --epochs 50 --out model.ckpt
    vpsep separate --checkpoint model.ckpt --input mix.wav --out outdir
    vpsep evaluate --checkpoint model.ckpt --data corpus --out report.tsv
    vpsep info     model.ckpt

``train``'s settings resolve as: built-in defaults, then an optional
``--config`` file of flat ``key = value`` lines, then explicit flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .audio import _atomic_write, wav_read, wav_write
from .config import MODELS, make_config
from .dataset import load_manifest, synth_dataset
from .errors import VpsepError
from .pipeline import (
    checkpoint_load,
    checkpoint_save,
    checkpoint_summary,
    evaluate,
    evaluate_ideal,
    separate,
    train,
)


def _cmd_synth(args) -> int:
    manifest = synth_dataset(
        args.out,
        seed=args.seed,
        n_train=args.train,
        n_test=args.test,
        duration_s=args.duration,
    )
    print(
        f"wrote {len(manifest.train_clips)} train + {len(manifest.test_clips)} "
        f"test clips under {manifest.root}"
    )
    return 0


def _cmd_train(args) -> int:
    config = make_config(
        args.config,
        model=args.model,
        hidden_width=args.hidden_width,
        hidden_layers=args.hidden_layers,
        color_n=args.color_n,
        lr=args.lr,
        batch_frames=args.batch_frames,
        epochs=args.epochs,
        seed=args.seed,
    )
    manifest = load_manifest(args.data)

    def show(epoch, mean_j):
        print(f"epoch {epoch + 1}/{config.epochs} J={mean_j:.6f}")

    ckpt, history = train(config, manifest, on_epoch=show if not args.quiet else None)
    checkpoint_save(args.out, ckpt)
    last = f"{history[-1]:.6f}" if history else "none"
    print(f"saved {config.model} ({config.arch}) to {args.out}; final J={last}")
    return 0


def _cmd_separate(args) -> int:
    ckpt = checkpoint_load(args.checkpoint)
    mix = wav_read(args.input, channel=args.channel)
    est_vocal, est_music = separate(ckpt, mix)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    paths = (out_dir / f"{stem}_vocal.wav", out_dir / f"{stem}_music.wav")
    for path, est in zip(paths, (est_vocal, est_music)):
        wav_write(path, est, fmt=args.fmt)
        print(f"wrote {path}")
    return 0


def _cmd_evaluate(args) -> int:
    manifest = load_manifest(args.data)
    if args.ideal is not None:
        report = evaluate_ideal(manifest, kind=args.ideal, split=args.split)
    else:
        report = evaluate(checkpoint_load(args.checkpoint), manifest, split=args.split)
    if report.skipped:
        print(f"skipped (silent stem): {' '.join(report.skipped)}", file=sys.stderr)
    table = report.table_tsv()
    print(table, end="")
    if args.out is not None:
        _atomic_write(args.out, lambda fh: fh.write(table.encode()))
        print(f"wrote {args.out}")
    if args.per_clip is not None:
        _atomic_write(args.per_clip, lambda fh: fh.write(report.per_clip_tsv().encode()))
        print(f"wrote {args.per_clip}")
    return 0


def _cmd_info(args) -> int:
    ckpt = checkpoint_load(args.checkpoint)
    print(checkpoint_summary(ckpt), end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpsep",
        description="Train and run vocal/music separation models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic paired-stem corpus")
    p.add_argument("--out", required=True, help="corpus root directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train", type=int, default=6, help="number of training clips")
    p.add_argument("--test", type=int, default=4, help="number of test clips")
    p.add_argument("--duration", type=float, default=4.0, help="clip seconds")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a corpus")
    p.add_argument("--data", required=True, help="corpus root directory")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--config", default=None, help="key = value settings file")
    p.add_argument("--model", choices=MODELS, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--hidden-width", type=int, default=None)
    p.add_argument("--hidden-layers", type=int, default=None)
    p.add_argument("--color-n", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-frames", type=int, default=None)
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch loss")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("separate", help="split one mixture into vocal and music")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="mixture wav file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--channel", type=int, default=None,
                   help="channel index for multichannel input")
    p.add_argument("--fmt", choices=("pcm16", "float32"), default="pcm16")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("evaluate", help="score a model over a corpus split")
    scored = p.add_mutually_exclusive_group(required=True)
    scored.add_argument("--checkpoint", default=None)
    scored.add_argument("--ideal", choices=("soft", "binary"), default=None,
                        help="score the oracle mask instead of a checkpoint")
    p.add_argument("--data", required=True, help="corpus root directory")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--out", default=None, help="also write the summary table here")
    p.add_argument("--per-clip", default=None, help="write per-clip metrics here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("info", help="describe a checkpoint")
    p.add_argument("checkpoint")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VpsepError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
