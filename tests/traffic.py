"""Which statements of the library does CLI traffic never run?

Runs the ``vpsep`` command line in this process over a small synthetic
corpus, with every thread traced, and prints each statement of the
``vpsep`` package that never ran, outermost first: a block that never
ran is printed once, as a line range, and a function that was never
called is printed as its ``def``.  Docstrings are not statements here.
The traffic is:

- ``synth`` of 2 training and 2 test clips of 1.5 s;
- ``train --config`` once (CVPNN at its default width, from a settings
  file, ``--quiet``);
- ``train``, ``info`` and ``evaluate --out --per-clip`` for each of the
  five models at 8x1 for 1 epoch;
- ``separate`` of a 44.1 kHz float32 mixture with CVPNN, WVPNN, DNN1 and
  DNN3; the mixture is one test clip tiled to 9 s, longer than one
  separation block, so block edges are crossed;
- ``evaluate --ideal soft`` and ``evaluate --ideal binary``; like every
  whole-split ``evaluate`` here, on a machine with two or more usable CPUs
  they score their two test clips on two threads.

Run it against a source tree::

    PYTHONPATH=src python tests/traffic.py

A statement it prints is reached only by tests, or by nothing.  Tracing
uses ``sys.settrace`` and ``threading.settrace`` filtered to the package
directory (the evaluation workers are threads).  The stdlib
``trace.Trace(ignoredirs=...)`` is not used: its ignore cache is keyed
by module basename, so it can skip a package module (``errors``) that
shares a name with an ignored one.  pytest does not collect this file
(the name does not start with ``test_``).
"""

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

MODELS = ("DNN1", "DNN2", "DNN3", "WVPNN", "CVPNN")
SEPARATED = ("DNN1", "DNN3", "WVPNN", "CVPNN")
SMALL = ("--hidden-width", "8", "--hidden-layers", "1", "--epochs", "1")
NESTED = ("body", "orelse", "finalbody", "handlers")


def traced_lines(pkg_dir: str, work):
    """Run ``work()`` with every Python frame of ``pkg_dir`` traced; return
    {filename: set of line numbers that ran}."""
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if os.path.dirname(name) != pkg_dir:
            return None
        hits.setdefault(name, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        work()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def code_lines(code) -> set[int]:
    """Line numbers that ``code`` and its nested code objects execute."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def header(node) -> set[int]:
    """The lines a statement runs itself, without its nested statements."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    nested = [c.lineno for f in NESTED for c in getattr(node, f, [])]
    last = min(nested, default=node.end_lineno + 1) - 1
    return set(range(first, max(first, last) + 1))


def never_ran(nodes, lines: set[int], hit: set[int]):
    """Outermost statements (or except clauses) among ``nodes`` with
    executable lines none of which ran; a function counts as run when its
    body did."""
    for node in nodes:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = set(range(node.body[0].lineno, node.end_lineno + 1))
        else:
            own = header(node)
        if own & lines and not own & hit:
            yield node
            continue
        for field in NESTED:
            yield from never_ran(getattr(node, field, []), lines, hit)


def run_cli(main, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"vpsep {' '.join(argv)} exited {rc}:\n{out.getvalue()}")


def traffic(tmp: Path) -> None:
    import numpy as np
    from scipy.io import wavfile
    from scipy.signal import resample_poly

    from vpsep.cli import main

    data = str(tmp / "corpus")
    run_cli(main, ["synth", "--out", data, "--seed", "0", "--train", "2",
                   "--test", "2", "--duration", "1.5"])
    conf = tmp / "cvpnn.conf"
    conf.write_text("# settings file\nmodel = CVPNN\n"
                    "hidden_layers = 1\nepochs = 1\nseed = 3\n")
    run_cli(main, ["train", "--data", data, "--config", str(conf), "--quiet",
                   "--out", str(tmp / "conf.ckpt")])

    _, mix16k = wavfile.read(Path(data) / "clip002" / "mix.wav")  # float32
    mix44 = tmp / "mix44.wav"
    tiled = np.tile(mix16k, 6)  # 9 s: more than one block of frames
    wavfile.write(mix44, 44100, resample_poly(tiled, 441, 160).astype("<f4"))

    for model in MODELS:
        ckpt = str(tmp / f"{model}.ckpt")
        run_cli(main, ["train", "--data", data, "--model", model, *SMALL,
                       "--out", ckpt])
        run_cli(main, ["info", ckpt])
        run_cli(main, ["evaluate", "--checkpoint", ckpt, "--data", data,
                       "--out", str(tmp / f"{model}.tsv"),
                       "--per-clip", str(tmp / f"{model}.clips.tsv")])
        if model in SEPARATED:
            run_cli(main, ["separate", "--checkpoint", ckpt, "--input", str(mix44),
                           "--out", str(tmp / f"{model}-stems")])
    run_cli(main, ["evaluate", "--ideal", "soft", "--data", data])
    run_cli(main, ["evaluate", "--ideal", "binary", "--data", data])


def main() -> int:
    pkg_dir = os.path.dirname(importlib.util.find_spec("vpsep").origin)
    print(f"vpsep found at {pkg_dir}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        hits = traced_lines(pkg_dir, lambda: traffic(Path(tmp)))
    count = 0
    for path in sorted(Path(pkg_dir).glob("*.py")):
        source = path.read_text()
        lines = code_lines(compile(source, str(path), "exec"))
        text = source.splitlines()
        hit = hits.get(str(path), set())
        for node in never_ran(ast.parse(source).body, lines, hit):
            count += 1
            span = f"{node.lineno}" if node.end_lineno == node.lineno \
                else f"{node.lineno}-{node.end_lineno}"
            print(f"{path.name}:{span}: {text[node.lineno - 1].strip()}")
    print(f"{count} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
